package core

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/cnc"
	"repro/internal/host"
	"repro/internal/malware"
	"repro/internal/malware/duqu"
	"repro/internal/malware/gauss"
	"repro/internal/netsim"
	"repro/internal/pe"
)

// netsimOK wraps a body-capturing callback as an always-200 handler.
func netsimOK(capture func(body []byte)) netsim.Handler {
	return netsim.HandlerFunc(func(req *netsim.Request) *netsim.Response {
		capture(req.Body)
		return netsim.OK(nil)
	})
}

// RunE1DuquTargeting reproduces the paper's Duqu characterization
// (Sections I and V-D): extreme targeting (the dropper exits silently off
// the target list), modules "compiled and built specifically for every
// new infection", JPEG-wrapped sealed exfiltration, and the fixed-lifetime
// self-removal.
func RunE1DuquTargeting(env *Env, seed uint64) (*Result, error) {
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed})
	if err != nil {
		return nil, err
	}
	lan := w.NewLAN("target-org", "10.50.0", false)

	seal, err := cnc.NewSealKeypair(w.K.RNG())
	if err != nil {
		return nil, err
	}
	targets := []string{"CA-ADMIN-1", "CA-ADMIN-2", "CA-HSM-OPS"}
	d, err := duqu.Build(w.K, duqu.Config{
		Targets:     targets,
		C2Domain:    "images.cdn.example",
		SealPub:     seal.Public,
		DriverKey:   w.PKI.StolenKey,
		DriverCert:  w.PKI.JMicronCert,
		KeylogEvery: 6 * time.Hour,
	})
	if err != nil {
		return nil, err
	}
	d.BindTo(w.Registry)

	var uploads [][]byte
	w.Internet.RegisterDomain("images.cdn.example", "203.0.113.90")
	w.Internet.BindServer("203.0.113.90", netsimOK(func(body []byte) { uploads = append(uploads, body) }))

	// A broad spear-phish wave hits ten machines; only three are on the
	// list.
	var hosts []*host.Host
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("STAFF-%02d", i+1)
		if i < len(targets) {
			name = targets[i]
		}
		h := w.AddHost(lan, name, host.WithInternet(true))
		hosts = append(hosts, h)
		if _, err := h.Execute(d.Dropper, true); err != nil {
			return nil, err
		}
	}
	w.K.RunFor(48 * time.Hour)

	// Per-victim builds are all distinct.
	digests := map[[32]byte]bool{}
	for _, name := range targets {
		if dg, ok := d.ModuleDigest(name); ok {
			digests[dg] = true
		}
	}
	// Exfil is JPEG-wrapped and opens only with the coordinator key.
	wrappedOK, sealedOK := true, true
	for _, body := range uploads {
		sealed, ok := duqu.UnwrapExfil(body)
		if !ok {
			wrappedOK = false
			continue
		}
		if _, err := seal.Open(sealed); err != nil {
			sealedOK = false
		}
	}

	// The lifetime deadline removes everything.
	w.K.RunFor(36 * 24 * time.Hour)
	artefacts := 0
	for _, h := range hosts {
		artefacts += duqu.ArtefactsPresent(h)
	}

	res := &Result{
		ID:    "E1",
		Title: "Duqu: extreme targeting and per-victim modules",
		Paper: "extremely targeted espionage; \"new modules are compiled and built specifically for every new infection\" (V-D); self-removal",
	}
	res.metric("phished_hosts", 10, "hosts")
	res.metric("targets_infected", float64(d.Stats.TargetsInfected), "hosts")
	res.metric("non_targets_refused", float64(d.Stats.NonTargetsRefused), "hosts")
	res.metric("distinct_victim_modules", float64(len(digests)), "builds")
	res.metric("jpeg_wrapped_exfils", float64(len(uploads)), "uploads")
	res.metric("exfil_opens_with_coordinator_key", boolMetric(wrappedOK && sealedOK && len(uploads) > 0), "bool")
	res.metric("artefacts_after_lifetime", float64(artefacts), "artefacts")
	res.metric("self_removals", float64(d.Stats.SelfRemovals), "hosts")
	res.Pass = d.Stats.TargetsInfected == 3 && d.Stats.NonTargetsRefused == 7 &&
		len(digests) == 3 && len(uploads) > 0 && wrappedOK && sealedOK &&
		artefacts == 0 && d.Stats.SelfRemovals == 3
	res.summaryf("%d/%d listed targets infected (%d refusals), %d distinct per-victim builds, %d JPEG-wrapped sealed uploads, 0 artefacts after lifetime",
		d.Stats.TargetsInfected, len(targets), d.Stats.NonTargetsRefused, len(digests), len(uploads))
	res.CaptureObs(w.K)
	return res, nil
}

// RunE2GaussGodel reproduces the paper's Gauss characterization (Section
// I): banking-credential theft, plus the configuration-keyed encrypted
// payload that detonates only on the intended machine and resists
// analysis everywhere else.
func RunE2GaussGodel(env *Env, seed uint64) (*Result, error) {
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed})
	if err != nil {
		return nil, err
	}
	lan := w.NewLAN("beirut", "10.60.0", false)
	center, err := cnc.NewAttackCenter(w.K, w.Internet, 10, 2)
	if err != nil {
		return nil, err
	}
	g, err := gauss.Build(w.K, gauss.Config{
		Center:         center,
		GodelTargetDir: "CascadeSCADA",
		CollectEvery:   6 * time.Hour,
	})
	if err != nil {
		return nil, err
	}
	g.BindTo(w.Registry)

	godelHosts := []string{}
	w.Registry.Bind(g.GodelPayload, func(env *malware.Env, p *host.Process, img *pe.File) {
		godelHosts = append(godelHosts, env.Host.Name)
	})

	// Six machines with banking sessions; exactly one carries the keyed
	// configuration.
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("BANK-PC-%d", i+1)
		h := w.AddHost(lan, name, host.WithInternet(true))
		h.SeedBrowserProfile("user", []host.BrowserLogin{
			{Domain: "webmail.example", User: "u", Password: "x"},
			{Domain: fmt.Sprintf("ebanking.blombank.example/%d", i), User: "acct", Password: "pin"},
		})
		if i == 2 {
			h.FS.Write(`C:\Program Files\CascadeSCADA\hmi.exe`, []byte("x"), 0, w.K.Now())
		} else {
			h.FS.Write(`C:\Program Files\OfficeSuite\word.exe`, []byte("x"), 0, w.K.Now())
		}
		if _, err := h.Execute(g.MainImage, true); err != nil {
			return nil, err
		}
	}
	w.K.RunFor(24 * time.Hour)

	// The analyst's position: the resource is flagged encrypted, no key
	// recovered, and a dictionary of wrong configurations fails.
	an := &analysis.Analyzer{}
	rep, err := an.Analyze(g.MainImage, w.K.Now())
	if err != nil {
		return nil, err
	}
	var opaque, flagged bool
	for _, r := range rep.Resources {
		if r.ID == gauss.GodelResourceID {
			flagged = r.LikelyEncrypted
			opaque = r.RecoveredKey == nil && !r.DecryptsToImage
		}
	}
	dictionaryFails := g.GodelOpaqueTo([]string{"OfficeSuite", "Adobe", "WinZip", "Chrome"})

	// Banking credentials reached the coordinator.
	center.Operator().CollectAll()
	if _, err := center.Coordinator().DecryptAll(); err != nil {
		return nil, err
	}
	bankDocs := 0
	for _, doc := range center.Coordinator().Archive() {
		if doc.Name == "banking.db" {
			bankDocs++
		}
	}

	res := &Result{
		ID:    "E2",
		Title: "Gauss: banking theft and the configuration-keyed payload",
		Paper: "data stealing focused on banking information; same factory as Flame (Section I); payload encrypted to the target configuration",
	}
	res.metric("hosts_infected", float64(g.InfectedCount()), "hosts")
	res.metric("bank_credentials_matched", float64(g.Stats.BankMatches), "credentials")
	res.metric("banking_uploads_decrypted", float64(bankDocs), "docs")
	res.metric("godel_attempts", float64(g.Stats.GodelAttempts), "hosts")
	res.metric("godel_detonations", float64(g.Stats.GodelDetonations), "hosts")
	res.metric("payload_flagged_encrypted", boolMetric(flagged), "bool")
	res.metric("payload_opaque_to_analysis", boolMetric(opaque && dictionaryFails), "bool")
	res.Pass = g.InfectedCount() == 6 && g.Stats.BankMatches >= 6 && bankDocs >= 6 &&
		g.Stats.GodelDetonations == 1 && len(godelHosts) == 1 && godelHosts[0] == "BANK-PC-3" &&
		flagged && opaque && dictionaryFails
	res.summaryf("%d hosts infected, %d banking credentials matched, Godel detonated on exactly %d keyed host and stayed opaque to the analyst",
		g.InfectedCount(), g.Stats.BankMatches, g.Stats.GodelDetonations)
	res.CaptureObs(w.K)
	return res, nil
}
