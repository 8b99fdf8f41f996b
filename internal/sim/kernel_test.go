package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestKernelStartsAtEpoch(t *testing.T) {
	k := NewKernel()
	if !k.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", k.Now(), Epoch)
	}
}

func TestWithStart(t *testing.T) {
	start := time.Date(2012, time.August, 15, 8, 0, 0, 0, time.UTC)
	k := NewKernel(WithStart(start))
	if !k.Now().Equal(start) {
		t.Fatalf("Now() = %v, want %v", k.Now(), start)
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	k := NewKernel()
	var fired time.Time
	k.Schedule(5*time.Minute, "ping", func() { fired = k.Now() })
	k.RunFor(time.Hour)
	want := Epoch.Add(5 * time.Minute)
	if !fired.Equal(want) {
		t.Errorf("event fired at %v, want %v", fired, want)
	}
	if !k.Now().Equal(Epoch.Add(time.Hour)) {
		t.Errorf("clock = %v, want %v", k.Now(), Epoch.Add(time.Hour))
	}
}

func TestEventsFireInTimestampOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(3*time.Second, "c", func() { order = append(order, 3) })
	k.Schedule(1*time.Second, "a", func() { order = append(order, 1) })
	k.Schedule(2*time.Second, "b", func() { order = append(order, 2) })
	k.Drain(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestTieBreakBySequence(t *testing.T) {
	k := NewKernel()
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		k.Schedule(time.Second, name, func() { order = append(order, name) })
	}
	k.Drain(10)
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	k := NewKernel()
	ev := k.Schedule(-time.Hour, "past", func() {})
	if ev.At().Before(k.Now()) {
		t.Fatalf("event scheduled in the past: %v < %v", ev.At(), k.Now())
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	ev := k.Schedule(time.Second, "x", func() { fired = true })
	k.Cancel(ev)
	k.Drain(10)
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and cancelling the zero Timer must be safe.
	k.Cancel(ev)
	k.Cancel(Timer{})
}

func TestCancelOneOfMany(t *testing.T) {
	k := NewKernel()
	var got []int
	evs := make([]Timer, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs[i] = k.Schedule(time.Duration(i+1)*time.Second, "n", func() { got = append(got, i) })
	}
	k.Cancel(evs[2])
	k.Drain(10)
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEvery(t *testing.T) {
	k := NewKernel()
	n := 0
	cancel := k.Every(10*time.Minute, "tick", func() { n++ })
	k.RunFor(time.Hour)
	if n != 6 {
		t.Fatalf("ticks = %d, want 6", n)
	}
	cancel()
	k.RunFor(time.Hour)
	if n != 6 {
		t.Fatalf("ticks after cancel = %d, want 6", n)
	}
}

func TestEveryCancelRemovesPendingTick(t *testing.T) {
	k := NewKernel()
	cancel := k.Every(time.Minute, "tick", func() {})
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	cancel()
	if k.Pending() != 0 {
		t.Fatalf("pending after cancel = %d, want 0 (dead tick left in queue)", k.Pending())
	}
	if n := k.Drain(10); n != 0 {
		t.Fatalf("Drain burned %d steps on a cancelled timer, want 0", n)
	}
	cancel() // double-cancel must be safe
}

func TestEveryCancelInsideTickLeavesQueueEmpty(t *testing.T) {
	k := NewKernel()
	n := 0
	var cancel func()
	cancel = k.Every(time.Minute, "tick", func() {
		n++
		if n == 2 {
			cancel()
		}
	})
	k.RunFor(time.Hour)
	if n != 2 {
		t.Fatalf("ticks = %d, want 2", n)
	}
	if k.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", k.Pending())
	}
}

func TestEveryCancelFromWithinTick(t *testing.T) {
	k := NewKernel()
	n := 0
	var cancel func()
	cancel = k.Every(time.Minute, "tick", func() {
		n++
		if n == 3 {
			cancel()
		}
	})
	k.RunFor(time.Hour)
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
}

func TestRunUntilDoesNotExecuteLaterEvents(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Schedule(2*time.Hour, "late", func() { fired = true })
	k.RunFor(time.Hour)
	if fired {
		t.Fatal("event beyond deadline fired")
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
}

func TestDrainRespectsMaxSteps(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 10; i++ {
		k.Schedule(time.Duration(i)*time.Second, "e", func() {})
	}
	if n := k.Drain(4); n != 4 {
		t.Fatalf("Drain = %d, want 4", n)
	}
	if k.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", k.Pending())
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	var times []time.Time
	k.Schedule(time.Second, "outer", func() {
		times = append(times, k.Now())
		k.Schedule(time.Second, "inner", func() {
			times = append(times, k.Now())
		})
	})
	k.Drain(10)
	if len(times) != 2 {
		t.Fatalf("events = %d, want 2", len(times))
	}
	if got, want := times[1].Sub(times[0]), time.Second; got != want {
		t.Fatalf("inner delay = %v, want %v", got, want)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		k := NewKernel(WithSeed(42))
		var out []uint64
		for i := 0; i < 5; i++ {
			k.Schedule(time.Duration(k.RNG().Intn(1000))*time.Millisecond, "e", func() {
				out = append(out, k.RNG().Uint64())
			})
		}
		k.Drain(100)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnProperty(t *testing.T) {
	r := NewRNG(9)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGBytesLength(t *testing.T) {
	r := NewRNG(3)
	for _, n := range []int{0, 1, 7, 8, 9, 100} {
		if got := len(r.Bytes(n)); got != n {
			t.Fatalf("Bytes(%d) length = %d", n, got)
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	a := NewRNG(5)
	child := a.Fork()
	// Child stream must differ from the parent continuing stream.
	same := true
	for i := 0; i < 10; i++ {
		if a.Uint64() != child.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("forked RNG mirrors parent stream")
	}
}

func TestScheduleAtPastClamps(t *testing.T) {
	k := NewKernel()
	k.Schedule(time.Hour, "advance", func() {})
	k.Drain(1)
	ev := k.ScheduleAt(Epoch, "past", func() {})
	if ev.At().Before(k.Now()) {
		t.Fatalf("past event not clamped: %v < %v", ev.At(), k.Now())
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	k := NewKernel()
	if k.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}
