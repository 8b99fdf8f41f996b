package core

import (
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/cnc"
	"repro/internal/host"
	"repro/internal/malware/flame"
	"repro/internal/malware/shamoon"
	"repro/internal/netsim"
	"repro/internal/pe"
	"repro/internal/pki"
)

// RunF1StuxnetOperation reproduces Figure 1: the three compromise levels —
// Windows, the Step 7 application, and the PLC — chained from a USB
// delivery to physical centrifuge damage with a blinded operator.
func RunF1StuxnetOperation(env *Env, seed uint64) (*Result, error) {
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed})
	if err != nil {
		return nil, err
	}
	sc, err := BuildNatanz(w, NatanzOptions{OfficeHosts: 3, MachinesPerDrive: 6})
	if err != nil {
		return nil, err
	}
	defer sc.Plant.Stop()

	w.K.RunFor(time.Hour) // steady-state cascade
	if err := sc.Deliver(); err != nil {
		return nil, err
	}
	// Mid-attack checkpoint: ~40 min after delivery the payload is in its
	// high phase.
	w.K.RunFor(40 * time.Minute)
	operatorBlind := sc.Plant.Operator.AllNormal() && !sc.Plant.Safety.Tripped
	// Run the wave out plus LAN spread rounds.
	w.K.RunFor(48 * time.Hour)

	res := &Result{
		ID:    "F1",
		Title: "Stuxnet operation overview (three compromise levels)",
		Paper: "USB -> Windows -> Step 7 (s7otbxdx.dll swap) -> PLC blocks -> centrifuge damage, operator sees normal",
	}
	stats := sc.Stuxnet.Stats
	res.metric("level1_windows_hosts_infected", float64(sc.Stuxnet.InfectedCount()), "hosts")
	res.metric("level2_step7_projects_infected", float64(stats.ProjectsInfected), "projects")
	res.metric("level3_plc_blocks_injected", boolMetric(stats.PLCCompromised)*2, "blocks")
	res.metric("rootkit_drivers_loaded", float64(stats.RootkitLoads), "drivers")
	res.metric("centrifuges_destroyed", float64(sc.Plant.DestroyedCount()), "machines")
	res.metric("attack_waves", float64(stats.AttacksLaunched), "waves")
	res.metric("operator_blind_mid_attack", boolMetric(operatorBlind), "bool")
	res.metric("zero_days_armed", float64(len(stats.ZeroDaysUsed())), "exploits")

	dllSwapped := sc.Engineer.FS.Exists(`C:\Program Files\Siemens\Step7\s7otbxsx.dll`)
	res.metric("s7otbxdx_dll_swapped", boolMetric(dllSwapped), "bool")
	res.Pass = sc.Stuxnet.InfectedCount() >= 1 && stats.ProjectsInfected >= 1 &&
		stats.PLCCompromised && sc.Plant.DestroyedCount() > 0 && operatorBlind && dllSwapped
	res.notef("engineer workstation infected via crafted LNK, project open deployed the PLC payload")
	res.summaryf("%d Windows hosts, %d Step 7 project(s), dll swapped, %d centrifuges destroyed over %d wave(s); operator display stayed normal",
		sc.Stuxnet.InfectedCount(), stats.ProjectsInfected, sc.Plant.DestroyedCount(), stats.AttacksLaunched)
	res.CaptureObs(w.K)
	return res, nil
}

// RunF2WPADMitm reproduces Figure 2: the Flame man-in-the-middle — a WPAD
// hijack turns the infected node into the victims' proxy, and intercepted
// Windows Update requests deliver a forged-signature installer.
func RunF2WPADMitm(env *Env, seed uint64) (*Result, error) {
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed})
	if err != nil {
		return nil, err
	}
	sc, err := BuildEspionage(w, EspionageOptions{Hosts: 10, DocsPerHost: 5, Domains: 10, ServerIPs: 3,
		BeaconEvery: time.Hour})
	if err != nil {
		return nil, err
	}
	sc.PushSpreadModules()
	w.K.RunFor(3 * time.Hour) // modules arrive

	// Every other host launches a browser (proxy auto-discovery) and then
	// checks Windows Update.
	proxied, infectedViaUpdate := 0, 0
	for _, h := range sc.Hosts[1:] {
		sc.LAN.BrowserLaunch(h)
		if h.ProxyHost == sc.Patient0.Name {
			proxied++
		}
		if _, err := netsim.CheckForUpdates(sc.LAN, h); err == nil && sc.Flame.Agent(h.Name) != nil {
			infectedViaUpdate++
		}
	}

	res := &Result{
		ID:    "F2",
		Title: "Flame WPAD man-in-the-middle + fake Windows Update",
		Paper: "victims adopt infected machine as proxy via WPAD; intercepted updates install Flame (signed, so accepted)",
	}
	res.metric("lan_hosts", float64(len(sc.Hosts)), "hosts")
	res.metric("victims_proxied_via_wpad", float64(proxied), "hosts")
	res.metric("infected_via_fake_update", float64(infectedViaUpdate), "hosts")
	res.metric("total_flame_agents", float64(sc.Flame.InfectedCount()), "hosts")
	res.Pass = proxied == len(sc.Hosts)-1 && infectedViaUpdate == len(sc.Hosts)-1
	res.notef("fake update signed by %q chain validated on unpatched victims", "SimSoft Windows Update")
	res.summaryf("%d/%d victims adopted the infected proxy via WPAD and installed Flame from the forged update",
		infectedViaUpdate, len(sc.Hosts)-1)
	res.CaptureObs(w.K)
	return res, nil
}

// RunF3CertForging reproduces Figure 3: leveraging a limited-use Terminal
// Services licensing certificate into code-signing authority via a
// weak-hash collision, and the advisory that kills it.
func RunF3CertForging(env *Env, seed uint64) (*Result, error) {
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed})
	if err != nil {
		return nil, err
	}
	p := w.PKI
	store := p.BaseStore.Clone()
	now := w.K.Now()

	// The licensing certificate itself cannot sign code.
	licenseRejected := store.VerifyChain(now, pki.UsageCodeSign, p.TSLSCert, p.Licensing.Cert) != nil

	if err := w.ForgeUpdateCert(); err != nil {
		return nil, err
	}
	collide := pki.WeakHash(p.ForgedCert.TBS()) == pki.WeakHash(p.TSLSCert.TBS())
	forgedAccepted := store.VerifyChain(now, pki.UsageCodeSign, p.ForgedChain()...) == nil

	// A signed binary is accepted as an update...
	fake := &pe.File{Name: "WuSetupV.exe", Machine: pe.MachineX86, Timestamp: now,
		Sections: []pe.Section{{Name: ".text", Data: []byte("installer")}}}
	if err := pki.SignImage(fake, p.AttackerKey, p.ForgedChain()...); err != nil {
		return nil, err
	}
	_, imgErr := pki.VerifyImage(fake, store, now, pki.UsageCodeSign)
	imageAccepted := imgErr == nil

	// ... until the advisory moves the intermediate to the untrusted
	// store.
	store.Distrust(p.Licensing.Cert.Serial, "advisory 2718704")
	_, postErr := pki.VerifyImage(fake, store, now, pki.UsageCodeSign)
	postAdvisoryRejected := postErr != nil

	res := &Result{
		ID:    "F3",
		Title: "Leveraging a licensing certificate to sign code",
		Paper: "TSLS cert (limited use) + flawed signing algorithm -> valid code signature; MS advisory untrusts the chain",
	}
	res.metric("license_cert_rejected_for_code", boolMetric(licenseRejected), "bool")
	res.metric("weak_hash_collision_found", boolMetric(collide), "bool")
	res.metric("forged_cert_accepted_for_code", boolMetric(forgedAccepted), "bool")
	res.metric("fake_update_signature_valid", boolMetric(imageAccepted), "bool")
	res.metric("post_advisory_rejected", boolMetric(postAdvisoryRejected), "bool")
	res.metric("weak_hash_bits", float64(pki.WeakHashBits), "bits")
	res.Pass = licenseRejected && collide && forgedAccepted && imageAccepted && postAdvisoryRejected
	res.summaryf("licensing cert rejected for code; %d-bit weak-hash collision yields an accepted forged chain; advisory distrust kills it",
		pki.WeakHashBits)
	res.CaptureObs(w.K)
	return res, nil
}

// RunF4CnCPlatform reproduces Figure 4: the C&C platform shape — 80
// domains over 22 server IPs, 5 bootstrap domains growing to ~10 after
// first contact, all controlled from a single attack center.
func RunF4CnCPlatform(env *Env, seed uint64) (*Result, error) {
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed})
	if err != nil {
		return nil, err
	}
	sc, err := BuildEspionage(w, EspionageOptions{Hosts: 6, DocsPerHost: 5, BeaconEvery: 2 * time.Hour})
	if err != nil {
		return nil, err
	}
	// Push the expanded domain configuration.
	expanded := strings.Join(sc.Center.Pool.BootstrapConfig(cnc.PostContactDomains), "\n")
	sc.Center.Operator().PushCommandAll(cnc.PkgDomainUpdate, []byte(expanded))
	// Infect the rest directly (vector is not the subject of F4).
	for _, h := range sc.Hosts[1:] {
		if _, err := h.Execute(sc.Flame.MainImage, true); err != nil {
			return nil, err
		}
	}
	w.K.RunFor(24 * time.Hour)

	res := &Result{
		ID:    "F4",
		Title: "The command-and-control platform behind Flame",
		Paper: "80 domains -> 22 server IPs; 5 default domains, ~10 after first contact; single attack center",
	}
	res.metric("registered_domains", float64(len(sc.Center.Pool.Domains())), "domains")
	res.metric("distinct_server_ips", float64(len(sc.Center.Pool.IPs())), "servers")
	res.metric("bootstrap_domains", float64(cnc.BootstrapDomains), "domains")
	agent := sc.Flame.Agent(sc.Patient0.Name)
	domainsAfter := 0
	if agent != nil {
		domainsAfter = len(agentDomains(agent))
	}
	res.metric("domains_after_first_contact", float64(domainsAfter), "domains")

	clientsSeen := 0
	for _, s := range sc.Center.Servers {
		clientsSeen += len(s.DB.Clients)
	}
	res.metric("clients_recorded_on_servers", float64(clientsSeen), "clients")
	deAtCount := 0
	for _, reg := range sc.Center.Pool.Registrations {
		if reg.Country == "Germany" || reg.Country == "Austria" {
			deAtCount++
		}
	}
	res.metric("registrations_fake_de_at", float64(deAtCount), "domains")
	res.Pass = len(sc.Center.Pool.Domains()) == cnc.DefaultDomainCount &&
		len(sc.Center.Pool.IPs()) == cnc.DefaultServerIPCount &&
		domainsAfter == cnc.PostContactDomains &&
		clientsSeen >= len(sc.Hosts) &&
		deAtCount == cnc.DefaultDomainCount
	res.summaryf("%d domains over %d server IPs; agents grew from %d to %d domains after first contact; %d clients recorded",
		len(sc.Center.Pool.Domains()), len(sc.Center.Pool.IPs()), cnc.BootstrapDomains, domainsAfter, clientsSeen)
	res.CaptureObs(w.K)
	return res, nil
}

// agentDomains exposes the agent's current C&C configuration size.
func agentDomains(a *flame.Agent) []string { return a.Domains() }

// RunF5CnCServer reproduces Figure 5: the server internals — the
// newsforyou ads/news/entries flow, sealed exfil the operator cannot read,
// LogWiper, and the 30-minute retention job.
func RunF5CnCServer(env *Env, seed uint64) (*Result, error) {
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed})
	if err != nil {
		return nil, err
	}
	center, err := cnc.NewAttackCenter(w.K, w.Internet, 10, 1)
	if err != nil {
		return nil, err
	}
	server := center.Servers[0]
	lan := w.NewLAN("office", "10.40.0", false)
	victim := w.AddHost(lan, "VICTIM", hostInternet()...)

	bc := &cnc.BeaconClient{
		ID: "victim-1", Type: cnc.ClientFL,
		Domains: center.Pool.BootstrapConfig(cnc.BootstrapDomains),
		SealPub: center.Seal.Public,
	}
	// Targeted ad + broadcast news.
	center.Operator().PushCommand("victim-1", "module:custom", []byte("targeted payload"))
	center.Operator().PushCommandAll("module:update", []byte("broadcast payload"))
	pkgs, err := bc.Contact(lan, victim)
	if err != nil {
		return nil, err
	}
	adsAndNews := len(pkgs)

	// Upload stolen data; the operator fetches sealed blobs only.
	if err := bc.Upload(lan, victim, "design.dwg", []byte("secret cascade drawing")); err != nil {
		return nil, err
	}
	op := center.Operator()
	collected := op.CollectAll()
	_, opErr := op.TryRead(op.SealedInbox()[0])
	operatorBlocked := opErr != nil
	decrypted, err := center.Coordinator().DecryptAll()
	if err != nil {
		return nil, err
	}

	// LogWiper + retention.
	server.RunLogWiper()
	logsGone := server.AccessLogLen() == 0
	server.StartCleanup(30 * time.Minute)
	if err := bc.Upload(lan, victim, "more.docx", []byte("second doc")); err != nil {
		return nil, err
	}
	server.FetchEntries()
	w.K.RunFor(2 * time.Hour)
	cleaned := server.PendingEntries() == 0

	res := &Result{
		ID:    "F5",
		Title: "Inside a C&C server (newsforyou)",
		Paper: "ads (targeted) + news (broadcast) + entries (sealed uploads); operator cannot decrypt; LogWiper; 30-min cleanup",
	}
	res.metric("packages_delivered_ads_plus_news", float64(adsAndNews), "packages")
	res.metric("sealed_entries_collected", float64(collected), "entries")
	res.metric("operator_decrypt_blocked", boolMetric(operatorBlocked), "bool")
	res.metric("coordinator_decrypted", float64(decrypted), "docs")
	res.metric("logwiper_effective", boolMetric(logsGone), "bool")
	res.metric("retention_cleanup_effective", boolMetric(cleaned), "bool")
	res.Pass = adsAndNews == 2 && collected == 1 && operatorBlocked && decrypted == 1 && logsGone && cleaned
	res.summaryf("%d packages (ad+news) delivered; operator blocked on sealed entry, coordinator decrypted %d; logs wiped, retention emptied the store",
		adsAndNews, decrypted)
	res.CaptureObs(w.K)
	return res, nil
}

// RunF6ShamoonComponents reproduces Figure 6: the TrkSvr.exe decomposition
// — a ~900 KB PE whose XOR-encrypted resources are recovered by static
// analysis as the reporter, the wiper, and the 64-bit variant.
func RunF6ShamoonComponents(env *Env, seed uint64) (*Result, error) {
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed})
	if err != nil {
		return nil, err
	}
	sh, err := shamoon.Build(w.K, shamoon.Config{
		ReporterDomain: "home.example",
		DriverKey:      w.PKI.EldosKey,
		DriverCert:     w.PKI.EldosCert,
		BulkBytes:      700 * 1024, // model the paper's 900 KB file
	})
	if err != nil {
		return nil, err
	}
	rules, err := analysis.CompileDisclosureRules("shamoon")
	if err != nil {
		return nil, err
	}
	an := &analysis.Analyzer{Store: w.PKI.BaseStore, Rules: rules}
	rep, err := an.Analyze(sh.MainImage, w.K.Now())
	if err != nil {
		return nil, err
	}

	encrypted, recovered, nested := 0, 0, 0
	for _, r := range rep.Resources {
		if r.LikelyEncrypted {
			encrypted++
		}
		if r.RecoveredKey != nil {
			recovered++
		}
		if r.DecryptsToImage {
			nested++
		}
	}
	// The driver is legitimately signed by its vendor.
	drvRep, err := an.Analyze(sh.RawDiskDriver, w.K.Now())
	if err != nil {
		return nil, err
	}
	driverSigned := drvRep.Signature.Present && drvRep.Signature.Signer == "Eldos Corporation"

	res := &Result{
		ID:    "F6",
		Title: "Shamoon components (TrkSvr.exe dissection)",
		Paper: "900 KB PE, simple XOR cipher, encrypted resources: reporter + wiper + 64-bit variant; Eldos-signed disk driver",
	}
	res.metric("main_image_bytes", float64(rep.Size), "bytes")
	res.metric("encrypted_resources", float64(encrypted), "resources")
	res.metric("xor_keys_recovered", float64(recovered), "keys")
	res.metric("nested_images_recovered", float64(nested), "images")
	res.metric("yara_dropper_rule_hits", float64(len(rep.YaraHits)), "rules")
	res.metric("disk_driver_vendor_signed", boolMetric(driverSigned), "bool")
	res.Pass = encrypted == 3 && recovered == 3 && nested == 3 &&
		rep.Size > 700*1024 && rep.Size < 1500*1024 && len(rep.YaraHits) > 0 && driverSigned
	res.notef("static analyzer recovered all three XOR keys via known-plaintext against the image magic")
	res.summaryf("%d KB image; %d/%d XOR-encrypted resources recovered (reporter, wiper, 64-bit variant); Eldos-signed driver verified",
		rep.Size/1024, nested, encrypted)
	res.CaptureObs(w.K)
	return res, nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func hostInternet() []host.Option {
	return []host.Option{host.WithInternet(true)}
}
