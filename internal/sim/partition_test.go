package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// collectDeliveries wires partition p to append a one-line render of
// every delivered message (with the local virtual receive time).
func collectDeliveries(p *Partition, into *[]string) {
	p.OnDeliver(func(m Message) {
		*into = append(*into, fmt.Sprintf("recv@%s kind=%s from=%d seq=%d at=%s payload=%v",
			p.K.Now().Format("15:04:05"), m.Kind, m.From, m.Seq, m.At.Format("15:04:05"), m.Payload))
	})
}

// TestPartitionMailboxOrdering proves the barrier delivers one window's
// mail sorted by (send vtime, sender index, per-sender seq), at the
// window boundary, regardless of the order sends were made in.
func TestPartitionMailboxOrdering(t *testing.T) {
	ps := NewPartitionSet(time.Hour)
	k0 := NewKernel()
	k1 := NewKernel()
	k2 := NewKernel()
	p0 := ps.Add(k0)
	p1 := ps.Add(k1)
	p2 := ps.Add(k2)

	var got []string
	collectDeliveries(p0, &got)

	// Sender 2 sends before sender 1 in wall order; vtime must win.
	k2.Schedule(1*time.Minute, "send", func() { p2.Send(0, "b", "k2-first") })
	k1.Schedule(1*time.Minute, "send", func() {
		p1.Send(0, "a", "k1-first")
		p1.Send(0, "a", "k1-second") // same vtime: seq breaks the tie
	})
	k1.Schedule(3*time.Minute, "send", func() { p1.Send(0, "c", "k1-late") })

	ps.RunUntil(Epoch.Add(2*time.Hour), 1)

	// Window opens at the earliest event (+1m) and closes at +1h1m; every
	// message lands there, ordered (At, From, Seq).
	want := []string{
		"recv@01:01:00 kind=a from=1 seq=1 at=00:01:00 payload=k1-first",
		"recv@01:01:00 kind=a from=1 seq=2 at=00:01:00 payload=k1-second",
		"recv@01:01:00 kind=b from=2 seq=1 at=00:01:00 payload=k2-first",
		"recv@01:01:00 kind=c from=1 seq=3 at=00:03:00 payload=k1-late",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d deliveries, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delivery %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if !k0.Now().Equal(Epoch.Add(2 * time.Hour)) {
		t.Errorf("destination clock = %s, want deadline", k0.Now())
	}
}

// buildPingRing builds P partitions where each shard ticks every 10
// minutes, traces the tick, and pings its right neighbour; deliveries
// are traced on the receiving kernel. Cross-partition traffic therefore
// flows in every window.
func buildPingRing(parts int) *PartitionSet {
	ps := NewPartitionSet(15 * time.Minute)
	for i := 0; i < parts; i++ {
		k := NewKernel(WithSeed(uint64(100 + i)))
		p := ps.Add(k)
		p.OnDeliver(func(m Message) {
			k.Trace().Emit(k.Now(), CatNetwork, fmt.Sprintf("part-%d", i),
				fmt.Sprintf("recv %s from %d seq %d", m.Kind, m.From, m.Seq))
		})
		k.Every(10*time.Minute, fmt.Sprintf("tick:%d", i), func() {
			k.Trace().Emit(k.Now(), CatExec, fmt.Sprintf("part-%d", i), "tick")
			p.Send((i+1)%parts, "ping", k.RNG().Uint64())
		})
	}
	return ps
}

// traceFingerprint renders every partition kernel's full record stream.
func traceFingerprint(ps *PartitionSet) string {
	var out string
	for i, p := range ps.parts {
		k := p.K
		out += fmt.Sprintf("== partition %d steps=%d spans=%d\n", i, k.Steps(), k.SpanCount())
		for _, e := range k.Trace().Events() {
			out += fmt.Sprintf("%s #%d [%s] %s: %s\n", e.At.Format(time.RFC3339), e.Seq, e.Cat, e.Actor, e.Msg)
		}
	}
	return out
}

// TestPartitionWorkerCountInvariance is the §14 contract at the sim
// layer: the number of workers advancing a partition set changes wall
// clock only — every kernel's trace, step count and message flow are
// byte-identical at 1/2/4/8 workers.
func TestPartitionWorkerCountInvariance(t *testing.T) {
	deadline := Epoch.Add(6 * time.Hour)
	var base string
	for _, workers := range []int{1, 2, 4, 8} {
		ps := buildPingRing(4)
		ps.RunUntil(deadline, workers)
		fp := traceFingerprint(ps)
		if base == "" {
			base = fp
			continue
		}
		if fp != base {
			t.Fatalf("workers=%d diverged from workers=1:\n%s\n-- vs --\n%s", workers, fp, base)
		}
	}
}

// TestPartitionIdleFastForward: a set whose shards go quiet must skip
// the dead stretch in one hop instead of spinning empty epoch windows,
// and every clock must land exactly on the deadline.
func TestPartitionIdleFastForward(t *testing.T) {
	ps := NewPartitionSet(time.Minute)
	k0 := NewKernel()
	k1 := NewKernel()
	p0 := ps.Add(k0)
	p1 := ps.Add(k1)
	var got []string
	collectDeliveries(p1, &got)
	_ = p0
	// One event a year out; a naive fixed grid would grind through half a
	// million one-minute windows.
	k0.ScheduleAt(Epoch.AddDate(1, 0, 0), "late", func() { p0.Send(1, "late", nil) })
	deadline := Epoch.AddDate(1, 0, 1)
	ps.RunUntil(deadline, 1)
	if len(got) != 1 {
		t.Fatalf("deliveries = %v, want 1", got)
	}
	for i, k := range []*Kernel{k0, k1} {
		if !k.Now().Equal(deadline) {
			t.Errorf("partition %d clock = %s, want deadline", i, k.Now())
		}
	}
}

// checkLedger fails the test unless every event k took from its pool was
// returned or is still queued: a shard that never stepped into the
// cancel keeps its queue, one that aborted released it.
func checkLedger(t *testing.T, label string, k *Kernel) {
	t.Helper()
	st := k.PoolStats()
	if gets, accounted := st.Hits+st.Misses, st.Puts+uint64(k.Pending()); gets != accounted {
		t.Errorf("%s: pool ledger %d gets, %d puts + pending", label, gets, accounted)
	}
}

// TestPartitionCancelFanOut: the supervisor cancels every shard kernel of
// a partitioned run, as the experiment scope does (DESIGN.md §13/§14),
// here from inside a window while the shards may run side by side. Each
// shard unwinds at its next step, the set relays the lowest-index shard's
// *Cancelled after the window's join, and every ledger balances.
func TestPartitionCancelFanOut(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ps := NewPartitionSet(15 * time.Minute)
		kernels := make([]*Kernel, 3)
		for i := range kernels {
			k := NewKernel()
			kernels[i] = k
			p := ps.Add(k)
			p.OnDeliver(func(Message) {})
			k.Every(5*time.Minute, fmt.Sprintf("tick:%d", i), func() {})
		}
		// Partition 1 hits the deadline mid-window: a deterministic
		// stand-in for the supervisor's cross-goroutine cancel.
		kernels[1].Schedule(30*time.Minute, "trip", func() {
			for _, k := range kernels {
				k.CancelRun(ErrDeadline)
			}
		})
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			ps.RunUntil(Epoch.Add(4*time.Hour), workers)
		}()
		c, ok := AsCancelled(recovered)
		if !ok {
			t.Fatalf("workers=%d: run did not unwind as *Cancelled: %v", workers, recovered)
		}
		if !errors.Is(c, ErrDeadline) {
			t.Errorf("workers=%d: cause = %v, want ErrDeadline", workers, c.Cause)
		}
		// Every shard ticks forever, so an empty queue marks an abort.
		first := -1
		for i, k := range kernels {
			checkLedger(t, fmt.Sprintf("workers=%d partition %d", workers, i), k)
			if first < 0 && k.Pending() == 0 {
				first = i
			}
		}
		want := fmt.Sprintf("tick:%d", first)
		if first == 1 {
			want = "trip"
		}
		if c.Diag.LastHandler != want {
			t.Errorf("workers=%d: relayed abort of last handler %q, want partition %d's (%q)",
				workers, c.Diag.LastHandler, first, want)
		}
	}
}

// TestPartitionCancelBetweenWindows: a cancel that reaches every shard
// before the run starts (the shutdown path) aborts each shard at its
// first step, so no event runs, and still unwinds as *Cancelled.
func TestPartitionCancelBetweenWindows(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ps := NewPartitionSet(time.Minute)
		var kernels []*Kernel
		ran := make([]int, 2)
		for i := range ran {
			k := NewKernel()
			kernels = append(kernels, k)
			ps.Add(k).OnDeliver(func(Message) {})
			k.Schedule(time.Minute, "work", func() { ran[i]++ })
		}
		for _, k := range kernels {
			k.CancelRun(nil)
		}
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			ps.RunUntil(Epoch.Add(time.Hour), workers)
		}()
		c, ok := AsCancelled(recovered)
		if !ok {
			t.Fatalf("workers=%d: run did not unwind as *Cancelled: %v", workers, recovered)
		}
		if !errors.Is(c, ErrCancelled) {
			t.Errorf("workers=%d: cause = %v, want ErrCancelled", workers, c.Cause)
		}
		if ran[0]+ran[1] != 0 {
			t.Errorf("workers=%d: events ran after the cancel: %v", workers, ran)
		}
		for i, k := range kernels {
			checkLedger(t, fmt.Sprintf("workers=%d partition %d", workers, i), k)
		}
	}
}

// TestPartitionSendMisuse: self-sends and out-of-range destinations are
// scenario bugs and fail loudly.
func TestPartitionSendMisuse(t *testing.T) {
	ps := NewPartitionSet(time.Minute)
	p0 := ps.Add(NewKernel())
	ps.Add(NewKernel())
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("self-send", func() { p0.Send(0, "x", nil) })
	mustPanic("out-of-range", func() { p0.Send(7, "x", nil) })
}

// TestPartitionNoHandlerPanics: mail for a partition that never called
// OnDeliver is a wiring bug, caught at the barrier with a clear message.
func TestPartitionNoHandlerPanics(t *testing.T) {
	ps := NewPartitionSet(time.Minute)
	k0 := NewKernel()
	p0 := ps.Add(k0)
	ps.Add(NewKernel()) // no handler
	k0.Schedule(time.Second, "send", func() { p0.Send(1, "orphan", nil) })
	defer func() {
		if recover() == nil {
			t.Fatal("delivery to handler-less partition did not panic")
		}
	}()
	ps.RunUntil(Epoch.Add(time.Hour), 1)
}

// TestPartitionStats: the wall-clock shard accounting used by the
// runstats manifest counts each kernel's steps.
func TestPartitionStats(t *testing.T) {
	ps := buildPingRing(2)
	ps.RunUntil(Epoch.Add(time.Hour), 2)
	stats := ps.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats len = %d", len(stats))
	}
	for i, st := range stats {
		if st.Steps == 0 {
			t.Errorf("partition %d reported zero steps", i)
		}
		if st.Steps != ps.Partition(i).K.Steps() {
			t.Errorf("partition %d steps mismatch", i)
		}
	}
}
