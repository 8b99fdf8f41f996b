package core

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/host"
	"repro/internal/malware/shamoon"
	"repro/internal/malware/stuxnet"
	"repro/internal/netsim"
	"repro/internal/pki"
)

// RunR1StuxnetTakedownP2P answers: when both futbol C&C domains are taken
// down mid-campaign, does the fleet still converge on a new worm version?
// Stuxnet's P2P update path (paper, II-A) means one hand-delivered v2 —
// the operators' only remaining channel — should gossip across the LAN,
// with every sync causally attributed to the takedown that forced it.
func RunR1StuxnetTakedownP2P(env *Env, seed uint64) (*Result, error) {
	prof := env.profile()
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed})
	if err != nil {
		return nil, err
	}
	lan := w.NewLAN("factory", "10.40.0", false)
	sx, err := stuxnet.Build(w.K, stuxnet.Config{
		DriverKey:   w.PKI.StolenKey,
		DriverCerts: []*pki.Certificate{w.PKI.RealtekCert, w.PKI.JMicronCert},
		SpreadEvery: 6 * time.Hour,
		BeaconEvery: 12 * time.Hour,
	})
	if err != nil {
		return nil, err
	}
	sx.BindTo(w.Registry)
	for i, domain := range stuxnet.DefaultC2Domains {
		ip := netsim.IP(fmt.Sprintf("203.0.113.%d", 30+i))
		w.Internet.RegisterDomain(domain, ip)
		w.Internet.BindServer(ip, netsim.HandlerFunc(func(*netsim.Request) *netsim.Response {
			return netsim.OK([]byte("ok"))
		}))
	}
	const fleet = 10
	hosts := w.AddHosts(lan, hostNames("FAC", fleet), host.WithOS(host.Win7), host.WithShares(true), host.WithInternet(true))
	if _, err := hosts[0].Execute(sx.MainImage, true); err != nil {
		return nil, fmt.Errorf("infect patient zero: %w", err)
	}

	eng := faults.NewEngine(w.K, w.Internet)
	update := sx.BuildUpdate(2)
	sx.BindUpdate(w.Registry, update, 2)

	takedownAt := prof.TakedownAt
	if takedownAt > 0 {
		w.K.Schedule(takedownAt, "r1-takedown", func() {
			for _, d := range stuxnet.DefaultC2Domains {
				if prof.NXWindow > 0 {
					eng.NXWindow(d, prof.NXWindow)
				} else {
					eng.TakedownDomain(d)
				}
			}
		})
	}
	// The operators hand-deliver v2 to patient zero 12 h after losing
	// their domains (at the same wall offset in the undisturbed run).
	deliverAt := takedownAt + 12*time.Hour
	if takedownAt == 0 {
		deliverAt = 84 * time.Hour
	}
	w.K.Schedule(deliverAt, "r1-update-delivery", func() {
		hosts[0].Execute(update, true)
	})
	w.K.RunFor(7 * 24 * time.Hour)

	infected, atV2 := 0, 0
	for _, h := range hosts {
		if sx.Infected(h.Name) {
			infected++
			if sx.Version(h.Name) >= 2 {
				atV2++
			}
		}
	}
	share := 0.0
	if infected > 0 {
		share = float64(atV2) / float64(infected)
	}

	res := &Result{
		ID:    "R1",
		Title: "Stuxnet C&C takedown: P2P version convergence",
		Paper: "\"updates could be installed on computers that were not connected to the Internet through a P2P network\" (II-A), under profile " + prof.Name,
	}
	res.metric("fleet", float64(fleet), "hosts")
	res.metric("infected_hosts", float64(infected), "hosts")
	res.metric("hosts_at_v2", float64(atV2), "hosts")
	res.metric("v2_share", share, "fraction")
	res.metric("p2p_syncs", float64(sx.Stats.P2PSyncs), "syncs")
	res.metric("beacon_failovers", float64(sx.Stats.BeaconFailovers), "failovers")
	res.metric("domains_taken_down", float64(eng.Stats.Takedowns), "domains")
	if takedownAt > 0 && prof.NXWindow == 0 {
		res.Pass = infected == fleet && share >= 0.9 && sx.Stats.P2PSyncs > 0
		res.summaryf("with both futbol domains seized, v2 reached %d/%d infected hosts (%.0f%%) purely over LAN P2P (%d syncs)",
			atV2, infected, share*100, sx.Stats.P2PSyncs)
		res.notef("every p2p sync span's causal parent is the takedown intervention")
	} else {
		res.Pass = infected == fleet && atV2 >= 1
		res.summaryf("profile %s: %d/%d infected, %d at v2 (%d p2p syncs)",
			prof.Name, infected, fleet, atV2, sx.Stats.P2PSyncs)
	}
	res.CaptureObs(w.K)
	return res, nil
}

// RunR2FlameDomainAgility answers: does the Flame platform survive losing
// its bootstrap domains? The operators re-register replacements from the
// same generator (the paper's 80-domain shape accreted through exactly
// such churn), clients rotate and pick up the new configuration, and when
// researchers finally sinkhole the whole pool the census records every
// surviving client checking in (Section III-B).
func RunR2FlameDomainAgility(env *Env, seed uint64) (*Result, error) {
	prof := env.profile()
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed})
	if err != nil {
		return nil, err
	}
	esp, err := BuildEspionage(w, EspionageOptions{
		Hosts: 6, DocsPerHost: 10, Domains: 24, ServerIPs: 6,
		BeaconEvery: 2 * time.Hour,
	})
	if err != nil {
		return nil, err
	}
	for _, h := range esp.Hosts[1:] {
		if _, err := h.Execute(esp.Flame.MainImage, true); err != nil {
			return nil, err
		}
	}

	eng := faults.NewEngine(w.K, w.Internet)
	sink := faults.NewSinkhole(w.K, "198.51.100.250")

	takedownAt := prof.TakedownAt
	if takedownAt == 0 {
		takedownAt = 72 * time.Hour // R2 is about the takedown; "none" skips it below
	}
	boot := esp.Center.Pool.BootstrapConfig(4)
	recovered := 0
	if prof.Active() {
		// Seize the first four bootstrap domains; clients rotate to the
		// fifth, the operators notice and extend the pool a day later.
		w.K.Schedule(takedownAt, "r2-takedown", func() {
			for _, d := range boot {
				if prof.NXWindow > 0 {
					eng.NXWindow(d, prof.NXWindow)
				} else {
					eng.TakedownDomain(d)
				}
			}
		})
		w.K.Schedule(takedownAt+24*time.Hour, "r2-reregister", func() {
			recovered = esp.Center.Operator().RecoverFromTakedown(w.Internet)
		})
		sinkholeAt := prof.SinkholeAt
		if sinkholeAt == 0 {
			sinkholeAt = takedownAt + 48*time.Hour
		}
		w.K.Schedule(sinkholeAt, "r2-sinkhole", func() {
			eng.SinkholeDomains(esp.Center.Pool.Domains(), sink)
		})
	}
	w.K.RunFor(7 * 24 * time.Hour)

	alive := esp.Flame.InfectedCount()
	rotations, failovers := 0, 0
	for _, a := range esp.Flame.Agents() {
		rotations += a.BeaconStats().Rotations
		failovers += a.BeaconStats().Failovers
	}

	res := &Result{
		ID:    "R2",
		Title: "Flame domain takedown: re-registration and sinkhole census",
		Paper: "~80 domains / 22 IPs with churn; sinkholed domains still drew check-ins from surviving clients (III-B), under profile " + prof.Name,
	}
	res.metric("agents_alive", float64(alive), "agents")
	res.metric("domains_taken_down", float64(eng.Stats.Takedowns), "domains")
	res.metric("domains_reregistered", float64(recovered), "domains")
	res.metric("domains_sinkholed", float64(eng.Stats.Sinkholes), "domains")
	res.metric("beacon_rotations", float64(rotations), "rotations")
	res.metric("beacon_failovers", float64(failovers), "failovers")
	res.metric("sinkhole_checkins", float64(sink.Checkins()), "checkins")
	res.metric("sinkhole_distinct_clients", float64(sink.DistinctClients()), "clients")
	if prof.Active() {
		res.Pass = alive == len(esp.Hosts) && recovered > 0 && rotations > 0 &&
			sink.DistinctClients() == alive
		res.summaryf("%d domains seized -> clients rotated (%d rotations), operators re-registered %d replacements; the sinkhole census saw all %d surviving clients (%d check-ins)",
			eng.Stats.Takedowns, rotations, recovered, sink.DistinctClients(), sink.Checkins())
		res.notef("the census works because the sinkhole answers the platform's own GET_NEWS protocol with an empty package list")
	} else {
		res.Pass = alive == len(esp.Hosts) && failovers == 0
		res.summaryf("baseline: all %d agents alive, no failovers, no sinkhole", alive)
	}
	res.CaptureObs(w.K)
	return res, nil
}

// RunR3ShamoonBlackout answers: does cutting the network stop the wiper?
// It must not — Shamoon's kill switch is a local scheduled task, and the
// paper's point is that the damage needs no C&C once armed. Under a total
// LAN blackout the spread curve freezes, the reporter goes silent, and
// every already-infected machine still wipes on schedule.
func RunR3ShamoonBlackout(env *Env, seed uint64) (*Result, error) {
	prof := env.profile()
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed, Start: shamoon.AramcoTrigger.Add(-48 * time.Hour)})
	if err != nil {
		return nil, err
	}
	ar, err := BuildAramco(w, AramcoOptions{
		Workstations: 40, DocsPerHost: 3,
		SpreadEvery: 12 * time.Hour, MaxPerSweep: 1,
	})
	if err != nil {
		return nil, err
	}
	eng := faults.NewEngine(w.K, w.Internet)
	if prof.Active() && prof.LossAt > 0 {
		w.K.Schedule(prof.LossAt, "r3-blackout", func() {
			eng.ImpairLAN(ar.LAN, netsim.Impairment{Loss: prof.Loss, Latency: prof.Latency})
		})
	}
	w.K.RunUntil(shamoon.AramcoTrigger.Add(2 * time.Hour))

	infected := ar.Shamoon.InfectedCount()
	wiped := ar.WipedCount()
	res := &Result{
		ID:    "R3",
		Title: "Shamoon under network blackout: wipe needs no C&C",
		Paper: "the wiper triggers from a local scheduled task at the armed date (IV-B); connectivity loss cannot recall it, under profile " + prof.Name,
	}
	res.metric("fleet", float64(len(ar.Hosts)), "hosts")
	res.metric("infected_hosts", float64(infected), "hosts")
	res.metric("wiped_hosts", float64(wiped), "hosts")
	res.metric("wipe_reports_home", float64(len(ar.Reports)), "reports")
	res.metric("lan_impairments", float64(eng.Stats.Impairments), "faults")
	switch {
	case prof.Active() && prof.LossAt > 0 && prof.Loss >= 1:
		res.Pass = wiped == infected && infected > 0 && infected < len(ar.Hosts) && len(ar.Reports) == 0
		res.summaryf("blackout at T-%s froze spread at %d/%d hosts, yet all %d wiped on schedule with 0 reports home",
			(48*time.Hour - prof.LossAt), infected, len(ar.Hosts), wiped)
		res.notef("the spread curve freezing while the wipe completes is the experiment's point: takedown mitigates propagation, never detonation")
	case prof.Active() && prof.LossAt > 0:
		res.Pass = wiped == infected && infected > 0
		res.summaryf("partial loss (%.0f%%): %d infected, all %d wiped on schedule", prof.Loss*100, infected, wiped)
	default:
		res.Pass = wiped == infected && infected > 0 && len(ar.Reports) > 0
		res.summaryf("baseline: %d infected, %d wiped, %d reports home", infected, wiped, len(ar.Reports))
	}
	res.CaptureObs(w.K)
	return res, nil
}

// RunR4CrashPersistence answers: which artefacts survive adversarial
// crash/reboot cycles, and does a mid-campaign patch rollout actually
// close the spooler gate? Wave A (unpatched) endures daily crash cycles —
// its registry keys, boot-start drivers and on-disk images must all
// persist. Wave B joins the LAN after the engine patched MS10-061, so the
// worm's one-shot spooler attempts against it must fail.
func RunR4CrashPersistence(env *Env, seed uint64) (*Result, error) {
	prof := env.profile()
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed})
	if err != nil {
		return nil, err
	}
	lan := w.NewLAN("plantnet", "10.50.0", false)
	sx, err := stuxnet.Build(w.K, stuxnet.Config{
		DriverKey:   w.PKI.StolenKey,
		DriverCerts: []*pki.Certificate{w.PKI.RealtekCert, w.PKI.JMicronCert},
		SpreadEvery: 6 * time.Hour,
	})
	if err != nil {
		return nil, err
	}
	sx.BindTo(w.Registry)

	const waveACount, waveBCount = 7, 6
	waveA := w.AddHosts(lan, hostNames("WAVEA", waveACount), host.WithOS(host.Win7), host.WithShares(true))
	if _, err := waveA[0].Execute(sx.MainImage, true); err != nil {
		return nil, err
	}

	eng := faults.NewEngine(w.K, w.Internet)
	if prof.Active() && prof.CrashEvery > 0 {
		eng.StartCrashCycles(waveA, prof.CrashEvery, prof.CrashFraction, prof.Downtime)
	}
	patchAt := prof.PatchAt
	if patchAt == 0 {
		patchAt = 72 * time.Hour
	}
	var waveB []*host.Host
	w.K.Schedule(patchAt+24*time.Hour, "r4-wave-b", func() {
		waveB = w.AddHosts(lan, hostNames("WAVEB", waveBCount), host.WithOS(host.Win7), host.WithShares(true))
		if prof.Active() && prof.PatchAt > 0 {
			// The rollout closed the spooler gate before these machines
			// ever saw the worm.
			eng.PatchHosts(waveB, stuxnet.MS10_061)
		}
	})
	w.K.RunFor(7 * 24 * time.Hour)

	infectedA, persisted, reboots := 0, 0, 0
	for _, h := range waveA {
		if sx.Infected(h.Name) {
			infectedA++
		}
		reboots += h.BootCount
		if h.FS.Exists(host.SystemDir + `\drivers\mrxcls.sys`) {
			if _, ok := h.Registry.Get(`HKLM\SYSTEM\CurrentControlSet\Services\mrxcls.sys`); ok {
				persisted++
			}
		}
	}
	infectedB := 0
	for _, h := range waveB {
		if sx.Infected(h.Name) {
			infectedB++
		}
	}

	res := &Result{
		ID:    "R4",
		Title: "Crash cycles and mid-campaign patching",
		Paper: "service/driver persistence survives reboots; patching MS10-061 closes the spooler vector for machines not yet reached, under profile " + prof.Name,
	}
	res.metric("wave_a_infected", float64(infectedA), "hosts")
	res.metric("wave_a_persisted", float64(persisted), "hosts")
	res.metric("wave_b_infected", float64(infectedB), "hosts")
	res.metric("crashes", float64(eng.Stats.Crashes), "crashes")
	res.metric("reboots", float64(reboots), "reboots")
	res.metric("patches_applied", float64(eng.Stats.Patches), "patches")
	if prof.Active() && prof.PatchAt > 0 {
		res.Pass = infectedA == waveACount && persisted == waveACount &&
			infectedB == 0 && eng.Stats.Crashes > 0
		res.summaryf("%d crashes/%d reboots left all %d wave-A infections persistent (driver + registry intact); the patched wave B stayed clean (0/%d)",
			eng.Stats.Crashes, reboots, persisted, waveBCount)
		res.notef("crash kills processes and timers; only registry-, service- and disk-backed artefacts carry across the reboot")
	} else {
		res.Pass = infectedA == waveACount && infectedB == waveBCount
		res.summaryf("baseline: worm reached all %d wave-A and all %d unpatched wave-B hosts",
			infectedA, infectedB)
	}
	res.CaptureObs(w.K)
	return res, nil
}

// RunR5AVAttrition answers: what does signature-based remediation actually
// buy against a resident platform? AV sweeps quarantine the on-disk
// installer by content digest, but the running agent only dies when a
// reboot hits the broken persistence chain — so attrition tracks the
// crash schedule, not the sweep schedule.
func RunR5AVAttrition(env *Env, seed uint64) (*Result, error) {
	prof := env.profile()
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed})
	if err != nil {
		return nil, err
	}
	esp, err := BuildEspionage(w, EspionageOptions{
		Hosts: 8, DocsPerHost: 10, Domains: 20, ServerIPs: 5,
		BeaconEvery: 2 * time.Hour,
	})
	if err != nil {
		return nil, err
	}
	for _, h := range esp.Hosts[1:] {
		if _, err := h.Execute(esp.Flame.MainImage, true); err != nil {
			return nil, err
		}
	}

	eng := faults.NewEngine(w.K, w.Internet)
	known := faults.Digests(esp.Flame.MainImage)
	if prof.Active() && prof.AVStartAt > 0 {
		w.K.Schedule(prof.AVStartAt, "r5-av-start", func() {
			eng.AVSweep(esp.Hosts, known)
			eng.StartAVSweeps(esp.Hosts, known, prof.AVSweepEvery)
		})
	}
	if prof.Active() && prof.CrashEvery > 0 {
		eng.StartCrashCycles(esp.Hosts, prof.CrashEvery, prof.CrashFraction, prof.Downtime)
	}
	w.K.RunFor(7 * 24 * time.Hour)

	alive := esp.Flame.InfectedCount()
	res := &Result{
		ID:    "R5",
		Title: "AV remediation sweeps vs. resident Flame agents",
		Paper: "quarantining the dropped installer breaks the LSA persistence chain; the agent dies at its next boot, not at scan time, under profile " + prof.Name,
	}
	res.metric("agents_start", float64(len(esp.Hosts)), "agents")
	res.metric("agents_alive", float64(alive), "agents")
	res.metric("agents_remediated", float64(esp.Flame.Stats.AgentsRemediated), "agents")
	res.metric("files_quarantined", float64(eng.Stats.Quarantines), "files")
	res.metric("crashes", float64(eng.Stats.Crashes), "crashes")
	if prof.Active() && prof.AVStartAt > 0 && prof.CrashEvery > 0 {
		res.Pass = eng.Stats.Quarantines >= len(esp.Hosts) &&
			esp.Flame.Stats.AgentsRemediated >= 1 && alive < len(esp.Hosts)
		res.summaryf("%d quarantines + %d crashes killed %d/%d agents; residents on never-rebooted machines kept running",
			eng.Stats.Quarantines, eng.Stats.Crashes, esp.Flame.Stats.AgentsRemediated, len(esp.Hosts))
		res.notef("remediation completes only when quarantine and reboot intersect — the defender needs both")
	} else {
		res.Pass = alive == len(esp.Hosts) && eng.Stats.Quarantines == 0
		res.summaryf("baseline: all %d agents alive, nothing quarantined", alive)
	}
	res.CaptureObs(w.K)
	return res, nil
}
