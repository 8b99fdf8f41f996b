package users

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// start is 00:00 UTC so work-hour boundaries land on whole simulated days.
var start = time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC)

// smallWorld builds n share-open, internet-connected hosts on one LAN
// with the benign services registered, and attaches a population.
func smallWorld(t *testing.T, seed uint64, n int, mix Mix, muted bool) (*sim.Kernel, *Population) {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(seed), sim.WithStart(start), sim.WithTraceCapacity(1<<14))
	k.Trace().SetMuted(muted)
	in := netsim.NewInternet(k)
	lan := netsim.NewLAN(k, "corp", "10.80.0", in)
	hosts := make([]*host.Host, n)
	for i := range hosts {
		h := host.New(k, nameFor(i), host.WithShares(true), host.WithInternet(true))
		lan.Attach(h)
		hosts[i] = h
	}
	p, err := Attach(k, lan, in, hosts, mix)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	return k, p
}

func nameFor(i int) string {
	return "WS-" + string(rune('A'+i/26)) + string(rune('A'+i%26))
}

func TestParseMix(t *testing.T) {
	for _, ok := range []string{"none", "office", "developer", "kiosk", "enterprise"} {
		if _, err := ParseMix(ok); err != nil {
			t.Errorf("ParseMix(%q): %v", ok, err)
		}
	}
	if _, err := ParseMix("frenetic"); err == nil {
		t.Error("ParseMix accepted junk")
	}
}

func TestEnterpriseMixAssignment(t *testing.T) {
	if MixEnterprise.ProfileFor(0) != Admin {
		t.Error("host 0 should be the admin")
	}
	counts := map[Profile]int{}
	for i := 0; i < 45; i++ {
		counts[MixEnterprise.ProfileFor(i)]++
	}
	if counts[Admin] != 1 {
		t.Errorf("admins = %d, want exactly 1", counts[Admin])
	}
	for _, p := range []Profile{Office, Developer, Kiosk} {
		if counts[p] == 0 {
			t.Errorf("enterprise mix of 45 hosts has no %s", p)
		}
	}
	if MixNone.ProfileFor(3) != "" {
		t.Error("MixNone assigned a profile")
	}
}

func TestAttachRejectsEmptyMix(t *testing.T) {
	k := sim.NewKernel(sim.WithSeed(1), sim.WithStart(start))
	if _, err := Attach(k, netsim.NewLAN(k, "l", "10.0.0", nil), nil, nil, ""); err == nil {
		t.Fatal("Attach accepted empty mix")
	}
	if _, err := Attach(k, netsim.NewLAN(k, "l2", "10.0.1", nil), nil, nil, MixNone); err == nil {
		t.Fatal("Attach accepted MixNone")
	}
}

// TestDeterministicStream is the §11 contract: same seed, same mix ⇒
// byte-identical trace export.
func TestDeterministicStream(t *testing.T) {
	run := func() ([]byte, Stats) {
		k, p := smallWorld(t, 7, 12, MixEnterprise, false)
		k.RunFor(72 * time.Hour)
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, k.Trace().Events()); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return buf.Bytes(), p.Stats
	}
	b1, s1 := run()
	b2, s2 := run()
	if !bytes.Equal(b1, b2) {
		t.Fatal("equal-seed runs exported different trace bytes")
	}
	if s1 != s2 {
		t.Fatalf("equal-seed stats diverged: %+v vs %+v", s1, s2)
	}
	if s1.Actions() == 0 {
		t.Fatal("population did nothing in 72h")
	}
}

// TestActionsEmitSubstrateTelemetry checks the layer speaks through the
// real simulator: documents land in the COW FS, share copies emit
// cat=spread, browsing emits cat=network, USB cycles emit cat=usb, and
// the admin round emits the RDP/psexec pair.
func TestActionsEmitSubstrateTelemetry(t *testing.T) {
	k, p := smallWorld(t, 3, 12, MixEnterprise, false)
	k.RunFor(7 * 24 * time.Hour)
	tr := k.Trace()
	if p.Stats.DocWrites == 0 || len(tr.Filter(sim.CatUser)) == 0 {
		t.Fatalf("no documents or no user breadcrumbs: %+v", p.Stats)
	}
	var doced bool
	for _, a := range p.Agents {
		if len(a.H.FS.Glob(".docx"))+len(a.H.FS.Glob(".xlsx"))+
			len(a.H.FS.Glob(".pdf"))+len(a.H.FS.Glob(".txt")) > 0 {
			doced = true
			break
		}
	}
	if !doced {
		t.Error("no agent materialized documents on its filesystem")
	}
	if p.Stats.ShareCopies > 0 && !traceHas(tr, "smb copy") {
		t.Error("share copies produced no cat=spread smb telemetry")
	}
	if p.Stats.WebVisits > 0 && len(tr.Filter(sim.CatNetwork)) == 0 {
		t.Error("web visits produced no network telemetry")
	}
	if p.Stats.USBCycles > 0 && len(tr.Filter(sim.CatUSB)) == 0 {
		t.Error("usb cycles produced no usb telemetry")
	}
	if p.Stats.Maintenances == 0 {
		t.Fatal("admin never completed a maintenance round")
	}
	if !traceHas(tr, "rdp login") || !traceHas(tr, "psexec") {
		t.Error("maintenance rounds missing rdp/psexec telemetry")
	}
	if p.Stats.TasksCreated != 1 || !traceHas(tr, "task registered: inventory-scan") {
		t.Error("admin inventory task missing")
	}
}

// traceHas reports whether any retained record's message contains substr.
func traceHas(tr *sim.Trace, substr string) bool {
	for _, e := range tr.Events() {
		if strings.Contains(e.Msg, substr) {
			return true
		}
	}
	return false
}

// TestSessionSpanAttribution: every substrate event an agent causes is
// stamped with that agent's session span, so provenance chains terminate
// at the benign users.session root.
func TestSessionSpanAttribution(t *testing.T) {
	k, p := smallWorld(t, 5, 6, MixOffice, false)
	k.RunFor(48 * time.Hour)
	sessions := map[string]struct{ span uint64 }{}
	for _, a := range p.Agents {
		sessions[a.H.Name] = struct{ span uint64 }{uint64(a.Session)}
	}
	checked := 0
	for _, e := range k.Trace().Events() {
		if c := sim.Category(e.Cat); c != sim.CatNetwork && c != sim.CatSpread && c != sim.CatUser {
			continue
		}
		s, ok := sessions[e.Actor]
		if !ok || e.Parent != 0 {
			continue
		}
		if uint64(e.Span) != s.span {
			t.Fatalf("record %q by %s carries span %d, want session %d", e.Msg, e.Actor, e.Span, s.span)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no attributable records checked")
	}
}

// TestWorkHoursGate: office agents draw nothing off-shift, kiosks never
// stop.
func TestWorkHoursGate(t *testing.T) {
	k, p := smallWorld(t, 9, 4, MixOffice, false)
	// 00:00 → 07:30 is entirely off-shift for office workers (the 08:00
	// tick itself is the first in-shift one).
	k.RunFor(7*time.Hour + 30*time.Minute)
	if got := p.Stats.Actions(); got != 0 {
		t.Fatalf("office agents acted %d times before 08:00", got)
	}
	k.RunFor(4 * time.Hour)
	if p.Stats.Actions() == 0 {
		t.Fatal("office agents idle during work hours")
	}

	k2, p2 := smallWorld(t, 9, 4, MixKiosk, false)
	k2.RunFor(6 * time.Hour)
	if p2.Stats.WebVisits == 0 {
		t.Fatal("kiosks idle overnight")
	}
}

// TestMutedFleetSkipsBreadcrumbs: a muted fleet's trace keeps nothing
// while its metric counters accumulate (fleet-benchmark fast path), and
// muting changes no behaviour.
func TestMutedFleetSkipsBreadcrumbs(t *testing.T) {
	k, p := smallWorld(t, 11, 8, MixOffice, true)
	k.RunFor(48 * time.Hour)
	if p.Stats.Actions() == 0 {
		t.Fatal("muted population did nothing")
	}
	if n := len(k.Trace().Events()); n != 0 {
		t.Fatalf("muted trace kept %d records", n)
	}
	if v := k.Metrics().Counter("users.doc.write").Value(); v == 0 {
		t.Fatal("users.* counters must accumulate while muted")
	}
	// Same seed unmuted: identical Stats, proving muting changes only
	// observation, never behaviour.
	k2, p2 := smallWorld(t, 11, 8, MixOffice, false)
	k2.RunFor(48 * time.Hour)
	if p.Stats != p2.Stats {
		t.Fatalf("muting changed behaviour: %+v vs %+v", p.Stats, p2.Stats)
	}
}

// TestBreadcrumbTaxonomy: every cat=user message uses the documented
// users.<noun>.<verb> prefix.
func TestBreadcrumbTaxonomy(t *testing.T) {
	k, _ := smallWorld(t, 13, 10, MixEnterprise, false)
	k.RunFor(5 * 24 * time.Hour)
	for _, e := range k.Trace().Filter(sim.CatUser) {
		head := strings.SplitN(e.Msg, " ", 2)[0]
		parts := strings.Split(head, ".")
		if len(parts) != 3 || parts[0] != "users" || parts[1] == "" || parts[2] == "" {
			t.Fatalf("breadcrumb %q violates users.<noun>.<verb> taxonomy", e.Msg)
		}
	}
}

// TestDownHostGoesQuiet: a downed host's agent performs nothing.
func TestDownHostGoesQuiet(t *testing.T) {
	k, p := smallWorld(t, 17, 3, MixKiosk, false)
	for _, a := range p.Agents {
		a.H.Down = true
	}
	k.RunFor(24 * time.Hour)
	if p.Stats.Actions() != 0 {
		t.Fatalf("downed hosts acted: %+v", p.Stats)
	}
}
