package core

import (
	"repro/internal/analysis"
	"repro/internal/cnc"
	"repro/internal/malware/duqu"
	"repro/internal/malware/flame"
	"repro/internal/malware/gauss"
	"repro/internal/malware/shamoon"
	"repro/internal/malware/stuxnet"
	"repro/internal/pki"
)

// RunE3Lineage reproduces the paper's code-lineage claims (Section I):
// "Duqu shares a lot of code with Stuxnet and there are several technical
// evidences that they have been designed by the same unknown entity";
// "Flame and Gauss exhibit striking similarities ... they come from the
// same factories that produced Stuxnet and Duqu"; and Shamoon, "the work
// of amateurs", shares code with neither. The shingle-similarity analysis
// recovers exactly this clustering from the samples' bytes.
func RunE3Lineage(env *Env, seed uint64) (*Result, error) {
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed})
	if err != nil {
		return nil, err
	}
	// Build one sample per family.
	sx, err := stuxnet.Build(w.K, stuxnet.Config{
		DriverKey:   w.PKI.StolenKey,
		DriverCerts: []*pki.Certificate{w.PKI.RealtekCert},
	})
	if err != nil {
		return nil, err
	}
	seal, err := cnc.NewSealKeypair(w.K.RNG())
	if err != nil {
		return nil, err
	}
	dq, err := duqu.Build(w.K, duqu.Config{
		Targets: []string{"T"}, C2Domain: "x.example", SealPub: seal.Public,
	})
	if err != nil {
		return nil, err
	}
	center, err := cnc.NewAttackCenter(w.K, w.Internet, 5, 1)
	if err != nil {
		return nil, err
	}
	fl, err := flame.Build(w.K, flame.Config{Center: center})
	if err != nil {
		return nil, err
	}
	ga, err := gauss.Build(w.K, gauss.Config{Center: center, GodelTargetDir: "X"})
	if err != nil {
		return nil, err
	}
	sh, err := shamoon.Build(w.K, shamoon.Config{ReporterDomain: "y.example"})
	if err != nil {
		return nil, err
	}

	m := analysis.CompareSamples(sx.MainImage, dq.Dropper, fl.MainImage, ga.MainImage, sh.MainImage)
	stuxDuqu := m.Of(sx.MainImage.Name, dq.Dropper.Name)
	flameGauss := m.Of(fl.MainImage.Name, ga.MainImage.Name)
	stuxFlame := m.Of(sx.MainImage.Name, fl.MainImage.Name)
	stuxShamoon := m.Of(sx.MainImage.Name, sh.MainImage.Name)
	flameShamoon := m.Of(fl.MainImage.Name, sh.MainImage.Name)

	res := &Result{
		ID:    "E3",
		Title: "Code lineage across the five weapons",
		Paper: "Duqu shares code with Stuxnet (same entity); Flame and Gauss from the same factory; Shamoon the amateur outlier",
	}
	res.metric("sim_stuxnet_duqu", stuxDuqu, "jaccard")
	res.metric("sim_flame_gauss", flameGauss, "jaccard")
	res.metric("sim_stuxnet_flame", stuxFlame, "jaccard")
	res.metric("sim_stuxnet_shamoon", stuxShamoon, "jaccard")
	res.metric("sim_flame_shamoon", flameShamoon, "jaccard")
	res.Pass = stuxDuqu > 0.1 && flameGauss > 0.1 &&
		stuxDuqu > 10*stuxShamoon && flameGauss > 10*flameShamoon &&
		stuxDuqu > 10*stuxFlame // the two platforms are distinct factories
	res.summaryf("shingle similarity: stuxnet↔duqu %.2f and flame↔gauss %.2f, both >10× any pairing with Shamoon",
		stuxDuqu, flameGauss)
	res.block(m.Render())
	res.CaptureObs(w.K)
	return res, nil
}
