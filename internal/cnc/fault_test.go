package cnc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// findMsg returns the kernel's retained trace records whose message
// contains substr, in order.
func findMsg(k *sim.Kernel, substr string) []obs.Event {
	var out []obs.Event
	for _, e := range k.Trace().Events() {
		if strings.Contains(e.Msg, substr) {
			out = append(out, e)
		}
	}
	return out
}

// TestFaultBeaconAuditTrail pins the satellite contract: a Contact cycle
// that walks only dead domains must not fail silently — every dead domain
// leaves a trace record with its failure reason, the cnc.beacon.failover
// counter advances, and the backoff streak doubles the retry delay.
func TestFaultBeaconAuditTrail(t *testing.T) {
	k := testKernel()
	in := netsim.NewInternet(k)
	in.RegisterDomain("noserver.example", "203.0.113.77") // resolves, nobody home
	l := netsim.NewLAN(k, "office", "10.0.0", in)
	h := host.New(k, "H", host.WithInternet(true))
	l.Attach(h)

	bc := &BeaconClient{ID: "c", Type: ClientFL,
		Domains: []string{"gone1.example", "noserver.example", "gone2.example"}}
	if _, err := bc.Contact(l, h); !errors.Is(err, ErrNoServer) {
		t.Fatalf("err = %v, want ErrNoServer", err)
	}

	if bc.Stats.Attempts != 1 || bc.Stats.Failovers != 3 || bc.Stats.ConsecFailures != 1 {
		t.Fatalf("stats = %+v", bc.Stats)
	}
	if got := k.Metrics().Counter("cnc.beacon.failover").Value(); got != 3 {
		t.Fatalf("cnc.beacon.failover = %g, want 3", got)
	}
	recs := findMsg(k, "beacon failed at")
	if len(recs) != 3 {
		t.Fatalf("failover trace records = %d, want 3", len(recs))
	}
	reasons := make(map[string]string)
	for _, e := range recs {
		domain, _ := e.Get("domain")
		reason, _ := e.Get("reason")
		reasons[domain] = reason
		if e.Cat != string(sim.CatC2) {
			t.Fatalf("failover event in category %q", e.Cat)
		}
	}
	want := map[string]string{
		"gone1.example": "nxdomain", "gone2.example": "nxdomain",
		"noserver.example": "no-server",
	}
	for d, r := range want {
		if reasons[d] != r {
			t.Fatalf("domain %s reason = %q, want %q (all: %v)", d, reasons[d], r, reasons)
		}
	}

	base := time.Hour
	if d := bc.NextDelay(base); d != 2*time.Hour {
		t.Fatalf("NextDelay after 1 failed cycle = %s, want 2h", d)
	}
	if _, err := bc.Contact(l, h); !errors.Is(err, ErrNoServer) {
		t.Fatalf("second cycle err = %v", err)
	}
	if d := bc.NextDelay(base); d != 4*time.Hour {
		t.Fatalf("NextDelay after 2 failed cycles = %s, want 4h", d)
	}
}

// TestFaultBeaconRotationAfterTakedown pins the domain-agility audit: when
// the preferred domain dies, the next cycle fails over, succeeds on a
// survivor, records an explicit rotation, and starts there next time.
func TestFaultBeaconRotationAfterTakedown(t *testing.T) {
	k := testKernel()
	in := netsim.NewInternet(k)
	kp, _ := NewSealKeypair(k.RNG())
	NewServer(k, in, "203.0.113.99", kp.Public)
	in.RegisterDomain("primary.example", "203.0.113.99")
	in.RegisterDomain("backup.example", "203.0.113.99")
	l := netsim.NewLAN(k, "office", "10.0.0", in)
	h := host.New(k, "H", host.WithInternet(true))
	l.Attach(h)

	bc := &BeaconClient{ID: "c", Type: ClientFL,
		Domains: []string{"primary.example", "backup.example"}, SealPub: kp.Public}
	if _, err := bc.Contact(l, h); err != nil {
		t.Fatalf("first contact: %v", err)
	}
	if bc.PreferredDomain() != "primary.example" || bc.Stats.Rotations != 0 {
		t.Fatalf("preferred = %q rotations = %d", bc.PreferredDomain(), bc.Stats.Rotations)
	}

	sp := k.OpenSpan(sim.CatFault, "faults", "takedown", "takedown")
	if !in.Takedown("primary.example", sp) {
		t.Fatal("Takedown failed")
	}
	if _, err := bc.Contact(l, h); err != nil {
		t.Fatalf("post-takedown contact: %v", err)
	}
	if bc.PreferredDomain() != "backup.example" {
		t.Fatalf("preferred = %q, want backup.example", bc.PreferredDomain())
	}
	if bc.Stats.Rotations != 1 || bc.Stats.Failovers != 1 || bc.Stats.ConsecFailures != 0 {
		t.Fatalf("stats = %+v", bc.Stats)
	}
	if recs := findMsg(k, "beacon rotated preferred domain"); len(recs) != 1 {
		t.Fatalf("rotation trace records = %d, want 1", len(recs))
	}
}
