package netsim

import (
	"reflect"
	"testing"

	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/sim"
)

// TestMutedWorldCountsLikeLiveTwin runs the same traffic through a live
// world and a muted one with no subscriber, which skips formatting the
// dispatch, exec and Add messages. Both must count the same records per
// category, keep the same metrics, and hand the next record the same Seq.
func TestMutedWorldCountsLikeLiveTwin(t *testing.T) {
	run := func(muted bool) (*sim.Kernel, []obs.Event) {
		k := testKernel()
		k.Trace().SetMuted(muted)
		in := NewInternet(k)
		in.RegisterDomain("update.example", "203.0.113.5")
		in.BindServer("203.0.113.5", echoServer())
		l := NewLAN(k, "office", "10.0.0", in)
		h := host.New(k, "WS-1", host.WithInternet(true))
		l.Attach(h)
		img := &pe.File{Name: "tool.exe", Machine: pe.MachineX86, Timestamp: k.Now()}
		for i := 0; i < 3; i++ {
			if _, err := l.HTTP(h, &Request{Method: "GET", Host: "update.example", Path: "/v", Body: []byte("abc")}); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Execute(img, false); err != nil {
				t.Fatal(err)
			}
			h.Logf(sim.CatDefense, "av", "scan %d clean", i)
			k.Trace().Add(k.Now(), sim.CatC2, "op", "beacon %d from %s", i, h.Name)
		}
		if _, err := in.Dispatch(&Request{Host: "gone.example"}); err == nil {
			t.Fatal("dispatch to an unregistered name succeeded")
		}
		k.Trace().SetMuted(false)
		k.Trace().Emit(k.Now(), sim.CatExec, "probe", "next")
		return k, k.Trace().Events()
	}
	live, liveEvents := run(false)
	muted, mutedEvents := run(true)
	for _, cat := range []sim.Category{sim.CatNetwork, sim.CatExec, sim.CatDefense, sim.CatC2} {
		if l, m := live.Trace().Count(cat), muted.Trace().Count(cat); l != m || l == 0 {
			t.Fatalf("Count(%s): live %d, muted %d", cat, l, m)
		}
	}
	if l, m := live.Metrics().Snapshot().Text(), muted.Metrics().Snapshot().Text(); l != m {
		t.Fatalf("metrics differ:\nlive\n%s\nmuted\n%s", l, m)
	}
	if len(mutedEvents) != 1 {
		t.Fatalf("muted world retained %d records, want only the probe", len(mutedEvents))
	}
	probe := liveEvents[len(liveEvents)-1]
	if probe.Msg != "next" || !reflect.DeepEqual(mutedEvents[0], probe) {
		t.Fatalf("next record: muted %+v, live %+v", mutedEvents[0], probe)
	}
	for _, e := range liveEvents[:len(liveEvents)-1] {
		if e.Msg == "" {
			t.Fatalf("live world left a record without its message: %+v", e)
		}
	}
}
