package core

// Failure-injection tests: campaigns under partial defences. The paper's
// trends section argues current security mechanisms were ineffective
// *as deployed*; these tests check the models degrade believably when the
// defences do land.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/host"
	"repro/internal/malware/shamoon"
	"repro/internal/netsim"
)

// TestStuxnetDegradesWithoutRootkit: if the stolen vendor certificates are
// distrusted before infection, the rootkit drivers fail to load but the
// user-mode infection and the PLC man-in-the-middle still function — the
// drivers buy stealth, not capability.
func TestStuxnetDegradesWithoutRootkit(t *testing.T) {
	w, err := NewWorld(WorldConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildNatanz(w, NatanzOptions{OfficeHosts: 0, MachinesPerDrive: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Plant.Stop()
	// Revoke the stolen identities fleet-wide before delivery.
	sc.Engineer.CertStore.Distrust(w.PKI.RealtekCert.Serial, "revoked")
	sc.Engineer.CertStore.Distrust(w.PKI.JMicronCert.Serial, "revoked")

	w.K.RunFor(time.Hour)
	if err := sc.Deliver(); err != nil {
		t.Fatal(err)
	}
	w.K.RunFor(3 * time.Hour)

	if !sc.Stuxnet.Infected("ENG-STATION") {
		t.Fatal("infection should not depend on the rootkit")
	}
	if sc.Stuxnet.Stats.RootkitLoads != 0 || sc.Stuxnet.Stats.RootkitLoadErrors != 2 {
		t.Fatalf("rootkit stats = %+v", sc.Stuxnet.Stats)
	}
	if sc.Plant.DestroyedCount() == 0 {
		t.Fatal("PLC payload should still function without the Windows rootkit")
	}
}

// TestFlameSpreadBlockedByAV: hosts carrying post-disclosure signatures
// refuse the fake update payload; unprotected neighbours still fall.
func TestFlameSpreadBlockedByAV(t *testing.T) {
	w, err := NewWorld(WorldConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildEspionage(w, EspionageOptions{Hosts: 6, DocsPerHost: 2, Domains: 10, ServerIPs: 2,
		BeaconEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := analysis.CompileDisclosureRules("flame")
	if err != nil {
		t.Fatal(err)
	}
	// Protect hosts 2 and 3: the update stub passes (it carries none of
	// the flame markers) but the mssecmgr.ocx it drops is scanned on
	// execution and blocked.
	protectedNames := map[string]bool{}
	for _, h := range sc.Hosts[1:3] {
		h.AddSecurity(analysis.NewSignatureAV("SimAV", rules))
		protectedNames[h.Name] = true
	}
	sc.PushSpreadModules()
	w.K.RunFor(2 * time.Hour)

	for _, h := range sc.Hosts[1:] {
		sc.LAN.BrowserLaunch(h)
		netsim.CheckForUpdates(sc.LAN, h)
	}
	for _, h := range sc.Hosts[3:] {
		if sc.Flame.Agent(h.Name) == nil {
			t.Fatalf("unprotected host %s not infected", h.Name)
		}
	}
	for name := range protectedNames {
		if a := sc.Flame.Agent(name); a != nil {
			t.Fatalf("protected host %s infected", name)
		}
	}
}

// TestShamoonPartialFleet: closed-share machines survive both infection
// and the wipe; the damage tracks the share-exposure fraction exactly.
func TestShamoonPartialFleet(t *testing.T) {
	start := shamoon.AramcoTrigger.Add(-12 * time.Hour)
	w, err := NewWorld(WorldConfig{Seed: 7, Start: start})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildAramco(w, AramcoOptions{Workstations: 20, DocsPerHost: 2, SpreadEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Harden a third of the fleet (not patient zero).
	hardened := 0
	for i, h := range sc.Hosts {
		if i != 0 && i%3 == 0 {
			h.SharesOpen = false
			hardened++
		}
	}
	w.K.RunUntil(shamoon.AramcoTrigger.Add(time.Hour))

	wiped, survived := 0, 0
	for _, h := range sc.Hosts {
		if h.Wiped {
			wiped++
		} else {
			survived++
		}
	}
	if survived != hardened {
		t.Fatalf("survived = %d, hardened = %d", survived, hardened)
	}
	if wiped != len(sc.Hosts)-hardened {
		t.Fatalf("wiped = %d", wiped)
	}
	// Survivors still boot.
	for _, h := range sc.Hosts {
		if !h.Wiped && !h.Bootable() {
			t.Fatalf("%s survived infection but lost its MBR", h.Name)
		}
	}
}

// TestShamoonMaxPerSweepBounds: the per-round fan-out cap holds.
func TestShamoonMaxPerSweepBounds(t *testing.T) {
	start := shamoon.AramcoTrigger.Add(-48 * time.Hour)
	w, err := NewWorld(WorldConfig{Seed: 8, Start: start})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildAramco(w, AramcoOptions{
		Workstations: 40, DocsPerHost: 1, SpreadEvery: time.Hour, MaxPerSweep: 2, LeanImages: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// After the first sweep (1 infected host, cap 2) at most 3 hosts are
	// infected; growth is bounded by 3x per round thereafter.
	w.K.RunFor(61 * time.Minute)
	if got := sc.Shamoon.InfectedCount(); got > 3 {
		t.Fatalf("first round infected %d, cap is 2 new per host", got)
	}
	prev := sc.Shamoon.InfectedCount()
	for i := 0; i < 5; i++ {
		w.K.RunFor(time.Hour)
		now := sc.Shamoon.InfectedCount()
		if now > prev*3 {
			t.Fatalf("round %d: %d -> %d exceeds 3x bound", i, prev, now)
		}
		prev = now
	}
}

// TestWorldMixedCampaigns: two families coexist in one world without
// cross-talk (distinct digests dispatch to distinct implants).
func TestWorldMixedCampaigns(t *testing.T) {
	start := shamoon.AramcoTrigger.Add(-6 * time.Hour)
	w, err := NewWorld(WorldConfig{Seed: 9, Start: start})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := BuildAramco(w, AramcoOptions{Workstations: 4, DocsPerHost: 2})
	if err != nil {
		t.Fatal(err)
	}
	esp, err := BuildEspionage(w, EspionageOptions{Hosts: 3, DocsPerHost: 2, Domains: 10, ServerIPs: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.K.RunUntil(shamoon.AramcoTrigger.Add(time.Hour))

	if ar.WipedCount() != 4 {
		t.Fatalf("aramco wiped = %d", ar.WipedCount())
	}
	if esp.Flame.InfectedCount() != 1 {
		t.Fatalf("flame agents = %d", esp.Flame.InfectedCount())
	}
	// The espionage LAN is untouched by the wiper.
	for _, h := range esp.Hosts {
		if h.Wiped {
			t.Fatalf("flame host %s wiped by shamoon", h.Name)
		}
	}
}

// TestAramcoScaleSweep: the fleet mechanics are size-invariant.
func TestAramcoScaleSweep(t *testing.T) {
	for _, fleet := range []int{10, 100, 500} {
		res, err := RunAramcoFleet(3, C7Options(fleet))
		if err != nil {
			t.Fatalf("fleet %d: %v", fleet, err)
		}
		if !res.Pass {
			t.Fatalf("fleet %d did not reproduce:\n%s", fleet, res.Render())
		}
		if res.MustMetric("wiped_unbootable") != float64(fleet) {
			t.Fatalf("fleet %d: wiped = %v", fleet, res.MustMetric("wiped_unbootable"))
		}
	}
}

// TestExperimentsAcrossSeeds: every fast experiment reproduces across a
// seed sweep, not just seed 1.
func TestExperimentsAcrossSeeds(t *testing.T) {
	fast := []string{"F3", "F5", "F6", "C3", "C8", "C9", "C10", "C11", "E2"}
	for _, id := range fast {
		for seed := uint64(2); seed <= 4; seed++ {
			run, _ := LookupExperiment(id)
			res, err := run(nil, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", id, seed, err)
			}
			if !res.Pass {
				t.Fatalf("%s seed %d did not reproduce:\n%s", id, seed, res.Render())
			}
		}
	}
	_ = fmt.Sprint
	_ = host.Win7
}
