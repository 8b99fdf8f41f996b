package sim

import (
	"errors"
	"testing"
	"time"
)

// runCaught runs fn and returns the *Cancelled panic it unwound with
// (nil if it returned normally).
func runCaught(t *testing.T, fn func()) (c *Cancelled) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if c, ok = AsCancelled(r); !ok {
				panic(r)
			}
		}
	}()
	fn()
	return nil
}

// TestCancelRunAbortsAtStepBoundary: a pending CancelRun tears the run
// down between events — the in-flight handler always completes, the
// panic carries the cause and a diagnostic, and no further events fire.
func TestCancelRunAbortsAtStepBoundary(t *testing.T) {
	k := NewKernel()
	var fired []string
	cause := errors.New("test cause")
	k.Schedule(time.Second, "first", func() {
		fired = append(fired, "first")
		k.CancelRun(cause)
		fired = append(fired, "first-done") // handler must finish
	})
	k.Schedule(2*time.Second, "second", func() { fired = append(fired, "second") })

	c := runCaught(t, func() { k.RunFor(time.Hour) })
	if c == nil {
		t.Fatal("cancelled run returned normally")
	}
	if !errors.Is(c, cause) {
		t.Fatalf("cancel cause = %v, want %v", c.Cause, cause)
	}
	if len(fired) != 2 || fired[1] != "first-done" {
		t.Fatalf("fired = %v; want the in-flight handler to complete and nothing more", fired)
	}
	if c.Diag.Steps != 1 || c.Diag.LastHandler != "first" {
		t.Fatalf("diagnostic = %+v, want steps=1 lastHandler=first", c.Diag)
	}
	if c.Diag.Pending != 1 || c.Diag.NextEvent != "second" {
		t.Fatalf("diagnostic = %+v, want pending=1 next=second", c.Diag)
	}
	if k.Pending() != 0 {
		t.Fatalf("queue not drained after abort: %d pending", k.Pending())
	}
}

// TestCancelRunPoolBalance: an abort mid-run must not leak pooled
// events — everything scheduled is returned to the free list, including
// the events still queued at the abort boundary.
func TestCancelRunPoolBalance(t *testing.T) {
	k := NewKernel()
	var reschedule func()
	n := 0
	reschedule = func() {
		n++
		// Fan out: each firing schedules two more, so the queue is deep
		// when the abort lands.
		k.Schedule(time.Second, "fan", reschedule)
		k.Schedule(2*time.Second, "fan", reschedule)
		if n == 500 {
			k.CancelRun(nil)
		}
	}
	k.Schedule(time.Second, "fan", reschedule)
	if c := runCaught(t, func() { k.RunFor(24 * time.Hour) }); c == nil {
		t.Fatal("cancelled run returned normally")
	}
	ps := k.PoolStats()
	if !ps.Balanced() {
		t.Fatalf("pool leaked events across abort: gets %d (hits %d + misses %d) != puts %d",
			ps.Hits+ps.Misses, ps.Hits, ps.Misses, ps.Puts)
	}
	if k.Pending() != 0 {
		t.Fatalf("queue not drained: %d", k.Pending())
	}
}

// TestCancelRunFromAnotherGoroutine: CancelRun is the one cross-
// goroutine entry point; a cancel posted from outside lands at the next
// step boundary.
func TestCancelRunFromAnotherGoroutine(t *testing.T) {
	k := NewKernel()
	var spin func()
	spin = func() { k.Schedule(0, "spin", spin) } // vtime-frozen hot loop
	k.Schedule(0, "spin", spin)
	go k.CancelRun(ErrStalled)
	c := runCaught(t, func() { k.RunFor(time.Hour) })
	if c == nil {
		t.Fatal("spin run returned normally")
	}
	if !errors.Is(c, ErrStalled) {
		t.Fatalf("cause = %v, want ErrStalled", c.Cause)
	}
	if !k.PoolStats().Balanced() {
		t.Fatalf("pool unbalanced after cross-goroutine abort: %+v", k.PoolStats())
	}
}

// TestCancelRunFirstCauseWins: later requests before the abort don't
// overwrite the original cause.
func TestCancelRunFirstCauseWins(t *testing.T) {
	k := NewKernel()
	k.CancelRun(ErrDeadline)
	k.CancelRun(ErrStalled)
	k.Schedule(time.Second, "never", func() {})
	c := runCaught(t, func() { k.Step() })
	if c == nil || !errors.Is(c, ErrDeadline) {
		t.Fatalf("cause = %v, want first cause ErrDeadline", c)
	}
	// The abort consumed the request: the next run proceeds normally.
	fired := false
	k.Schedule(time.Second, "after", func() { fired = true })
	k.RunFor(time.Hour)
	if !fired {
		t.Fatal("cancel request not consumed by the abort")
	}
}

// TestAttachProbeChains: two probes attached via AttachProbe both see
// samples; the finer cadence wins.
func TestAttachProbeChains(t *testing.T) {
	k := NewKernel()
	a, b := &recordingProbe{}, &recordingProbe{}
	k.AttachProbe(a, 100)
	k.AttachProbe(b, 10)
	if k.probeEvery != 10 {
		t.Fatalf("probeEvery = %d, want the finer cadence 10", k.probeEvery)
	}
	fn := func() {}
	for i := 0; i < 25; i++ {
		k.Schedule(time.Duration(i+1)*time.Second, "tick", fn)
	}
	k.RunFor(time.Hour)
	if a.samples != 2 || b.samples != 2 {
		t.Fatalf("probe samples = %d/%d, want 2/2 (25 steps at cadence 10)", a.samples, b.samples)
	}
}
