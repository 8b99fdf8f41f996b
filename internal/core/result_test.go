package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// captureKernels builds two kernels whose retained streams interleave in
// vtime and tie at +10s. Kernel a opens span 1 (root) and span 2 (its
// child) at +0s, then emits span-free records at +10s and +20s. Kernel b
// opens span 1 at +5s, emits under it at +10s, and opens span 2 (its
// child) at +15s.
func captureKernels(t *testing.T) []*sim.Kernel {
	t.Helper()
	a, b := sim.NewKernel(), sim.NewKernel()
	at := func(k *sim.Kernel, d time.Duration, fn func()) { k.Schedule(d, "capture-test", fn) }
	var bRoot obs.Span
	at(a, 0, func() {
		root := a.OpenSpan(sim.CatExec, "a", "a root", "")
		a.WithCause(sim.Cause{Span: root}, func() { a.OpenSpan(sim.CatInfect, "a", "a child", "") })
	})
	at(a, 10*time.Second, func() { a.Trace().Emit(a.Now(), sim.CatNetwork, "a", "a tie") })
	at(a, 20*time.Second, func() { a.Trace().Emit(a.Now(), sim.CatNetwork, "a", "a last") })
	at(b, 5*time.Second, func() { bRoot = b.OpenSpan(sim.CatExec, "b", "b root", "") })
	at(b, 10*time.Second, func() {
		b.WithCause(sim.Cause{Span: bRoot}, func() { b.Trace().Emit(b.Now(), sim.CatNetwork, "b", "b tie") })
	})
	at(b, 15*time.Second, func() {
		b.WithCause(sim.Cause{Span: bRoot}, func() { b.OpenSpan(sim.CatInfect, "b", "b child", "") })
	})
	for _, k := range []*sim.Kernel{a, b} {
		k.RunFor(time.Minute)
	}
	if a.SpanCount() != 2 || b.SpanCount() != 2 {
		t.Fatalf("span counts = %d, %d; want 2, 2", a.SpanCount(), b.SpanCount())
	}
	return []*sim.Kernel{a, b}
}

// captured renders one captured record as "msg span/parent".
func captured(e obs.Event) string { return fmt.Sprintf("%s %d/%d", e.Msg, e.Span, e.Parent) }

// TestCaptureConcatenateAndMerge pins the one capture body behind
// CaptureObs and CaptureObsMerged. Concatenation keeps kernel order;
// merging orders by (vtime, kernel index, record order). In both modes
// kernel b's span and parent IDs shift past kernel a's SpanCount, zero
// IDs stay zero, a second call on the same result keeps shifting past
// everything captured before, and every record is tagged exp=<ID>.
func TestCaptureConcatenateAndMerge(t *testing.T) {
	// Span IDs of one capture call whose first kernel is shifted by base.
	batch := func(base int, merge bool) []string {
		a0 := fmt.Sprintf("a root %d/0", base+1)
		a1 := fmt.Sprintf("a child %d/%d", base+2, base+1)
		b0 := fmt.Sprintf("b root %d/0", base+3)
		b1 := fmt.Sprintf("b tie %d/0", base+3)
		b2 := fmt.Sprintf("b child %d/%d", base+4, base+3)
		if merge {
			return []string{a0, a1, b0, "a tie 0/0", b1, b2, "a last 0/0"}
		}
		return []string{a0, a1, "a tie 0/0", "a last 0/0", b0, b1, b2}
	}
	for _, mode := range []struct {
		name    string
		merge   bool
		capture func(*Result, ...*sim.Kernel)
	}{
		{"concatenate", false, (*Result).CaptureObs},
		{"merge", true, (*Result).CaptureObsMerged},
	} {
		t.Run(mode.name, func(t *testing.T) {
			res := &Result{ID: "ZZ-capture"}
			mode.capture(res, captureKernels(t)...)
			mode.capture(res, captureKernels(t)...)
			want := append(batch(0, mode.merge), batch(4, mode.merge)...)
			if len(res.Events) != len(want) {
				t.Fatalf("captured %d events, want %d", len(res.Events), len(want))
			}
			for i, e := range res.Events {
				if got := captured(e); got != want[i] {
					t.Fatalf("event %d = %q, want %q", i, got, want[i])
				}
				if len(e.Tags) == 0 || e.Tags[0] != obs.T("exp", "ZZ-capture") {
					t.Fatalf("event %d (%s) is not tagged exp=ZZ-capture: %v", i, e.Msg, e.Tags)
				}
			}
			if res.spanBase != 8 {
				t.Fatalf("span base after two calls = %d, want 8", res.spanBase)
			}
			if got := res.Obs.Counters["sim.event.execute"]; got != 12 {
				t.Fatalf("merged sim.event.execute = %v, want 12 (four kernels, three events each)", got)
			}
		})
	}
}
