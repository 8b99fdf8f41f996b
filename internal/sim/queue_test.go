package sim

import (
	"container/heap"
	"math"
	"testing"
	"time"
)

// refEntry is one queued event of the reference model.
type refEntry struct {
	at    time.Time
	seq   uint64
	name  string
	id    int       // what the fire log records
	every *refEvery // the loop this is a tick of, or nil
	index int       // position in refHeap; -1 once fired or cancelled
}

// refHeap is the event queue as the kernel wrote it with container/heap:
// an interface heap ordered by time.Time.Before, then sequence. It is the
// reference the kernel's typed queue is checked against.
type refHeap []*refEntry

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) Push(x any) {
	e := x.(*refEntry)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// refEvery mirrors one Kernel.Every loop.
type refEvery struct {
	name    string
	period  time.Duration
	stopAt  int // the tick whose callback cancels the loop; 0 for none
	ticks   int // ticks the reference fired
	stopped bool
	pending *refEntry
	cancel  func() // the kernel loop's cancel function
}

// stop cancels the kernel loop from outside its tick, and the reference
// loop with it.
func (l *refEvery) stop(r *refKernel) {
	l.cancel()
	l.stopped = true
	r.cancel(l.pending)
	l.pending = nil
}

// refKernel models the kernel's clock, sequence numbers, clamping and
// Every loops on top of refHeap.
type refKernel struct {
	now   time.Time
	seq   uint64
	q     refHeap
	fired []int
}

func (r *refKernel) scheduleAt(t time.Time, name string, id int, loop *refEvery) *refEntry {
	if t.Before(r.now) {
		t = r.now
	}
	r.seq++
	e := &refEntry{at: t, seq: r.seq, name: name, id: id, every: loop}
	heap.Push(&r.q, e)
	return e
}

func (r *refKernel) cancel(e *refEntry) {
	if e != nil && e.index >= 0 {
		heap.Remove(&r.q, e.index)
	}
}

func (r *refKernel) step() {
	e := heap.Pop(&r.q).(*refEntry)
	r.now = e.at
	loop := e.every
	if loop == nil {
		r.fired = append(r.fired, e.id)
		return
	}
	loop.pending = nil
	if loop.stopped {
		return
	}
	r.fired = append(r.fired, e.id)
	loop.ticks++
	if loop.ticks == loop.stopAt {
		loop.stopped = true
		return
	}
	loop.pending = r.scheduleAt(r.now.Add(loop.period), loop.name, e.id, loop)
}

// queueQuanta scale a fuzzed delay: nanoseconds test the sub-second half
// of the order key, and the long quanta carry the clock across years.
var queueQuanta = [4]time.Duration{time.Nanosecond, 250 * time.Millisecond, time.Hour, 1000 * time.Hour}

var queueNames = [3]string{"a", "b:WS-1", "c"}

// checkQueue checks the typed queue's own invariants: every slot's key
// matches its event, Event.index names the slot, and no slot is earlier
// than its parent.
func checkQueue(t *testing.T, k *Kernel) {
	t.Helper()
	for i := range k.queue {
		s := &k.queue[i]
		if s.ev.index != i || s.seq != s.ev.seq || s.sec != s.ev.at.Unix() || s.nsec != int64(s.ev.at.Nanosecond()) {
			t.Fatalf("slot %d = {%d %d %d} holds event {index %d seq %d at %v}", i, s.sec, s.nsec, s.seq, s.ev.index, s.ev.seq, s.ev.at)
		}
		if i > 0 && s.before(&k.queue[(i-1)/queueArity]) {
			t.Fatalf("slot %d is earlier than its parent", i)
		}
	}
}

// runQueueOps drives a kernel started at start and the reference with
// the operations ops decodes to, and fails at the first difference in
// Pending, NextEventAt, any Timer's Active/At/Name, or fire order.
func runQueueOps(t *testing.T, start time.Time, ops []byte) {
	k := NewKernel(WithStart(start))
	r := &refKernel{now: start}
	type handle struct {
		tm  Timer
		ref *refEntry
	}
	var (
		handles []handle
		loops   []*refEvery
		kFired  []int
		matched int // fires already compared
	)
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	delay := func() time.Duration {
		return time.Duration(int8(next())) * queueQuanta[next()%4]
	}
	schedule := func(d time.Duration, at bool) {
		id := len(handles)
		name := queueNames[id%len(queueNames)]
		fn := func() { kFired = append(kFired, id) }
		var h handle
		if at {
			h = handle{k.ScheduleAt(k.Now().Add(d), name, fn), r.scheduleAt(r.now.Add(d), name, id, nil)}
		} else {
			h = handle{k.Schedule(d, name, fn), r.scheduleAt(r.now.Add(max(d, 0)), name, id, nil)}
		}
		handles = append(handles, h)
	}
	cancelSeq := func(seq uint64) {
		for _, e := range r.q {
			if e.seq != seq {
				continue
			}
			if loop := e.every; loop != nil {
				loop.stop(r)
				return
			}
			for _, h := range handles {
				if h.ref == e {
					k.Cancel(h.tm)
					r.cancel(e)
					return
				}
			}
		}
		t.Fatalf("kernel holds seq %d, which the reference does not", seq)
	}
	check := func(op string) {
		t.Helper()
		checkQueue(t, k)
		if k.Pending() != r.q.Len() {
			t.Fatalf("after %s: Pending %d, reference %d", op, k.Pending(), r.q.Len())
		}
		at, ok := k.NextEventAt()
		if ok != (r.q.Len() > 0) || ok && !at.Equal(r.q[0].at) {
			t.Fatalf("after %s: NextEventAt %v %v, reference %d queued", op, at, ok, r.q.Len())
		}
		if len(kFired) != len(r.fired) {
			t.Fatalf("after %s: %d fired, reference %d", op, len(kFired), len(r.fired))
		}
		for ; matched < len(kFired); matched++ {
			if kFired[matched] != r.fired[matched] {
				t.Fatalf("after %s: fire %d was %d, reference %d", op, matched, kFired[matched], r.fired[matched])
			}
		}
		for i, h := range handles {
			active := h.ref.index >= 0
			var wantAt time.Time
			var wantName string
			if active {
				wantAt, wantName = h.ref.at, h.ref.name
			}
			if h.tm.Active() != active || !h.tm.At().Equal(wantAt) || h.tm.Name() != wantName {
				t.Fatalf("after %s: timer %d = {%v %v %q}, reference {%v %v %q}",
					op, i, h.tm.Active(), h.tm.At(), h.tm.Name(), active, wantAt, wantName)
			}
		}
	}

	for n := 0; n < 512 && len(ops) > 0; n++ {
		switch op := next(); op % 8 {
		case 0:
			schedule(delay(), false)
			check("Schedule")
		case 1:
			schedule(delay(), true)
			check("ScheduleAt")
		case 2, 3:
			if len(k.queue) > 0 {
				i := []int{0, len(k.queue) / 2, len(k.queue) - 1}[next()%3]
				cancelSeq(k.queue[i].seq)
			}
			check("Cancel")
		case 4:
			if b := next(); b%2 == 0 || len(handles) == 0 {
				k.Cancel(Timer{})
			} else {
				// A stale handle: its event fired or was cancelled,
				// and its struct may carry another event by now.
				for j := range handles {
					h := handles[(int(b)+j)%len(handles)]
					if h.ref.index < 0 {
						k.Cancel(h.tm)
						break
					}
				}
			}
			check("stale Cancel")
		case 5, 6:
			stepped := k.Step()
			if stepped != (r.q.Len() > 0) {
				t.Fatalf("Step = %v with %d queued in the reference", stepped, r.q.Len())
			}
			if stepped {
				r.step()
			}
			check("Step")
		case 7:
			if b := next(); b%2 == 0 || len(loops) == 0 {
				id := -1 - len(loops)
				loop := &refEvery{
					name:   queueNames[len(loops)%len(queueNames)],
					period: time.Duration(1+b%8) * queueQuanta[next()%4],
					stopAt: int(next() % 4),
				}
				kTicks := 0
				loop.cancel = k.Every(loop.period, loop.name, func() {
					kFired = append(kFired, id)
					kTicks++
					if kTicks == loop.stopAt {
						loop.cancel()
					}
				})
				loop.pending = r.scheduleAt(r.now.Add(loop.period), loop.name, id, loop)
				loops = append(loops, loop)
				check("Every")
			} else {
				loops[int(b)%len(loops)].stop(r)
				check("Every cancel")
			}
		}
	}
	for _, loop := range loops {
		loop.stop(r)
	}
	check("cancelling every loop")
	for r.q.Len() > 0 {
		if !k.Step() {
			t.Fatal("kernel ran dry before the reference")
		}
		r.step()
		check("drain")
	}
	if k.Step() {
		t.Fatal("kernel fired an event after the reference ran dry")
	}
	if ps := k.PoolStats(); !ps.Balanced() {
		t.Fatalf("pool ledger unbalanced after the drain: %+v", ps)
	}
}

// queueSeedOps draws n operations with opcodes from mix, each followed
// by the argument bytes runQueueOps reads for it.
func queueSeedOps(rng *RNG, n int, mix []byte) []byte {
	var ops []byte
	for range n {
		op := mix[rng.Intn(len(mix))]
		ops = append(ops, op)
		switch op {
		case 0, 1:
			ops = append(ops, rng.Bytes(2)...)
		case 2, 3, 4:
			ops = append(ops, rng.Bytes(1)...)
		case 7:
			ops = append(ops, rng.Bytes(3)...)
		}
	}
	return ops
}

// FuzzEventQueue checks the kernel's typed queue against the
// container/heap reference on streams of schedules (equal and past
// times included), cancels of the head, a middle and the last slot,
// stale and zero Timer cancels, steps, and Every loops cancelled inside
// and outside their tick. The seed corpus starts kernels in the years 1,
// 1600, 2300 and 9999 with sub-second nanoseconds, and just short of both
// ends of UnixNano's range, where a key built from UnixNano wraps and
// misorders events. Half its streams are schedule-heavy, so cancels land
// inside a queue a few hundred events deep.
func FuzzEventQueue(f *testing.F) {
	mixes := [][]byte{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{0, 0, 0, 1, 1, 1, 2, 3, 5},
	}
	for i, start := range []time.Time{
		Epoch,
		time.Date(1, time.January, 1, 0, 0, 0, 999_999_999, time.UTC),
		time.Date(1600, time.March, 1, 12, 0, 0, 500_000_001, time.UTC),
		time.Date(2300, time.July, 4, 0, 0, 59, 750_000_000, time.UTC),
		time.Date(9999, time.December, 31, 23, 59, 58, 123_456_789, time.UTC),
		time.Unix(0, math.MinInt64).Add(-time.Second).UTC(),
		time.Unix(0, math.MaxInt64).Add(-time.Second).UTC(),
	} {
		for j, mix := range mixes {
			rng := NewRNG(uint64(10*i + j + 1))
			f.Add(start.Unix(), uint32(start.Nanosecond()), queueSeedOps(rng, 512, mix))
		}
	}
	f.Fuzz(func(t *testing.T, sec int64, nsec uint32, ops []byte) {
		// time.Time wraps some 292 billion years out, where Before and
		// any key disagree; fold the start to within 34,000 years.
		runQueueOps(t, time.Unix(sec%(1<<40), int64(nsec%1e9)).UTC(), ops)
	})
}
