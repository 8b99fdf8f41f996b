package sim

import (
	"testing"
	"time"
)

// TestFiredEventsAreRecycled pins the free-list contract: a fired or
// cancelled event's struct goes back to the pool with its closure, name
// and cause cleared, and the very next schedule reuses it.
func TestFiredEventsAreRecycled(t *testing.T) {
	k := NewKernel()
	k.Schedule(time.Second, "first", func() {})
	if !k.Step() {
		t.Fatal("Step executed nothing")
	}
	if len(k.free) != 1 {
		t.Fatalf("free list = %d events, want 1", len(k.free))
	}
	rec := k.free[0]
	if rec.fn != nil || rec.name != "" || rec.cause != (Cause{}) {
		t.Fatalf("recycled event not cleared: fn=%p name=%q cause=%+v", rec.fn, rec.name, rec.cause)
	}
	tm := k.Schedule(time.Second, "second", func() {})
	if tm.ev != rec {
		t.Fatal("schedule did not reuse the pooled event struct")
	}
	if len(k.free) != 0 {
		t.Fatalf("free list = %d events after reuse, want 0", len(k.free))
	}
}

// TestCancelledEventsAreRecycled is the Cancel-side variant.
func TestCancelledEventsAreRecycled(t *testing.T) {
	k := NewKernel()
	tm := k.Schedule(time.Second, "doomed", func() {})
	k.Cancel(tm)
	if len(k.free) != 1 || k.free[0].fn != nil {
		t.Fatalf("cancelled event not recycled/cleared (free=%d)", len(k.free))
	}
}

// TestStaleTimerIsInertAfterRecycle is the safety half of pooling: a
// handle to a fired event must not cancel (or report on) the unrelated
// event that inherited its struct.
func TestStaleTimerIsInertAfterRecycle(t *testing.T) {
	k := NewKernel()
	stale := k.Schedule(time.Second, "old", func() {})
	k.Step()
	fired := false
	fresh := k.Schedule(time.Second, "new", func() { fired = true })
	if fresh.ev != stale.ev {
		t.Fatal("test premise broken: struct was not reused")
	}
	if stale.Active() {
		t.Fatal("stale Timer reports Active for a recycled event")
	}
	if got := stale.Name(); got != "" {
		t.Fatalf("stale Timer leaked name %q of the recycled event", got)
	}
	k.Cancel(stale) // must NOT cancel "new"
	k.Drain(10)
	if !fired {
		t.Fatal("stale Cancel removed an unrelated recycled event")
	}
}

// TestTimerAccessorsWhileQueued covers the live half of the handle API.
func TestTimerAccessorsWhileQueued(t *testing.T) {
	k := NewKernel()
	tm := k.Schedule(time.Minute, "beat", func() {})
	if !tm.Active() {
		t.Fatal("queued Timer not Active")
	}
	if tm.Name() != "beat" {
		t.Fatalf("Name = %q", tm.Name())
	}
	if want := Epoch.Add(time.Minute); !tm.At().Equal(want) {
		t.Fatalf("At = %v, want %v", tm.At(), want)
	}
	k.Drain(1)
	if tm.Active() || !tm.At().IsZero() {
		t.Fatal("fired Timer still reports queued state")
	}
}

// TestPoolDeterminismUnderChurn replays a timer-storm workload twice and
// requires identical execution order and telemetry — pooling must not
// perturb the determinism contract.
func TestPoolDeterminismUnderChurn(t *testing.T) {
	run := func() (uint64, float64) {
		k := NewKernel(WithSeed(3))
		var cancels []Timer
		for i := 0; i < 500; i++ {
			d := time.Duration(1+k.RNG().Intn(3600)) * time.Second
			tm := k.Schedule(d, "churn", func() {
				if k.RNG().Intn(2) == 0 {
					k.Schedule(time.Duration(1+k.RNG().Intn(600))*time.Second, "child", func() {})
				}
			})
			if i%3 == 0 {
				cancels = append(cancels, tm)
			}
		}
		for _, tm := range cancels {
			k.Cancel(tm)
		}
		k.Drain(10_000)
		return k.Steps(), k.Metrics().Snapshot().Counters["sim.event.schedule"]
	}
	s1, c1 := run()
	s2, c2 := run()
	if s1 != s2 || c1 != c2 {
		t.Fatalf("run diverged: steps %d vs %d, schedules %g vs %g", s1, s2, c1, c2)
	}
}

// BenchmarkScheduleFire measures the hot schedule->execute path. With the
// free list a steady-state iteration allocates nothing.
func BenchmarkScheduleFire(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(time.Second, "bench", fn)
		k.Step()
	}
}

// BenchmarkScheduleCancel measures the schedule->cancel path.
func BenchmarkScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Cancel(k.Schedule(time.Second, "bench", fn))
	}
}

// deepQueue is the backlog of the deep benches: about one C7 site
// partition's queue during the busy fleet's run.
const deepQueue = 20_000

// deepKernel returns a kernel holding deepQueue events spread over the
// next deepQueue seconds. Each of them, when it fires, reschedules itself
// at a random time in that window, so stepping it keeps the depth fixed.
func deepKernel() *Kernel {
	k := NewKernel()
	var hold func()
	hold = func() { k.Schedule(time.Duration(1+k.RNG().Intn(deepQueue))*time.Second, "hold", hold) }
	for range deepQueue {
		hold()
	}
	return k
}

// BenchmarkScheduleFireDeep is BenchmarkScheduleFire at fleet depth: one
// op pops the earliest of deepQueue events, runs it, and pushes its
// successor at a random later time.
func BenchmarkScheduleFireDeep(b *testing.B) {
	k := deepKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// BenchmarkScheduleCancelDeep is BenchmarkScheduleCancel at fleet depth:
// one op cancels the oldest of deepQueue events, wherever the queue holds
// it, and schedules its replacement at a random time.
func BenchmarkScheduleCancelDeep(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	timers := make([]Timer, deepQueue)
	for j := range timers {
		timers[j] = k.Schedule(time.Duration(1+k.RNG().Intn(deepQueue))*time.Second, "bench", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % deepQueue
		k.Cancel(timers[j])
		timers[j] = k.Schedule(time.Duration(1+k.RNG().Intn(deepQueue))*time.Second, "bench", fn)
	}
}

// TestScheduleFireSteadyStateAllocs is the CI-facing regression gate for
// the pool and the queue: the schedule/fire cycle must not allocate once
// warmed up, on an empty queue or behind deepQueue others.
func TestScheduleFireSteadyStateAllocs(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		k.Schedule(time.Second, "steady", fn)
		k.Step()
	})
	if allocs > 0 {
		t.Fatalf("schedule/fire allocates %.1f objects per op, want 0", allocs)
	}
	deep := deepKernel()
	if allocs := testing.AllocsPerRun(1000, func() { deep.Step() }); allocs > 0 {
		t.Fatalf("deep schedule/fire allocates %.1f objects per op, want 0", allocs)
	}
}
