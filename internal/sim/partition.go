package sim

// Partitioned deterministic execution (DESIGN.md §14).
//
// A PartitionSet couples P independent kernels — one per world shard
// (site, LAN, enclave) — into a single simulation that can advance on
// multiple OS threads without giving up the byte-determinism contract.
// The scheme is conservative epoch synchronization:
//
//   - every partition runs its own events locally inside the window
//     (epoch, epoch+Δ]; partitions share no mutable state during a
//     window, so the workers never contend;
//   - cross-partition traffic (internet dispatch, C&C beacons, USB
//     carries between sites) is not delivered synchronously: the sender
//     enqueues a Message stamped (At = send vtime, From = sender index,
//     Seq = per-sender counter) into its outbox;
//   - at the window's end every worker parks on a barrier; the
//     coordinator sorts all outboxes by (At, From, Seq) and schedules
//     each message onto its destination kernel at the boundary time, in
//     that order, before any partition resumes.
//
// Delivery order is therefore a pure function of virtual time and the
// per-sender counters — never of which worker finished first — so the
// number of workers advancing the set only controls wall-clock
// concurrency. Each kernel is stepped by one worker at a time, and only
// whole partitions run side by side. The logical partition layout
// itself is part of the scenario: changing it changes the simulated
// world (different kernels, RNG streams and span sequences), while
// changing the worker count never changes a byte.

import (
	"fmt"
	"sort"
	"time"
)

// Message is one cross-partition payload, exchanged at an epoch
// boundary. At is the sender's virtual clock when Send was called; the
// message is delivered at the first window boundary at or after At,
// so cross-partition latency is bounded by the set's epoch Δ.
type Message struct {
	At      time.Time // sender's virtual time at Send
	From    int       // sending partition index
	Seq     uint64    // per-sender send counter (starts at 1)
	Kind    string    // routing tag for the destination's handler
	Payload any
}

// routed is an outbox entry: a Message plus its destination.
type routed struct {
	to  int
	msg Message
}

// Partition is one shard of a partitioned simulation: a kernel plus its
// mailbox plumbing. Obtain one from PartitionSet.Add.
type Partition struct {
	K   *Kernel
	set *PartitionSet
	idx int

	seq     uint64 // stamps outgoing messages
	outbox  []routed
	deliver func(Message)

	wall time.Duration // wall-clock plane: time spent advancing this shard
}

// Send enqueues a cross-partition message for delivery at the end of
// the current epoch window. It must be called from the partition's own
// kernel (inside one of its event callbacks, or between runs on the
// coordinating goroutine) — the outbox is not locked, the barrier is
// the only synchronization. Sending to the own partition is a bug:
// local work is just ScheduleAt.
func (p *Partition) Send(to int, kind string, payload any) {
	if to < 0 || to >= len(p.set.parts) {
		panic(fmt.Sprintf("sim: partition %d sends %q to out-of-range partition %d", p.idx, kind, to))
	}
	if to == p.idx {
		panic(fmt.Sprintf("sim: partition %d sends %q to itself; use ScheduleAt", p.idx, kind))
	}
	p.seq++
	p.outbox = append(p.outbox, routed{to: to, msg: Message{
		At: p.K.Now(), From: p.idx, Seq: p.seq, Kind: kind, Payload: payload,
	}})
}

// OnDeliver installs the partition's mailbox handler. Delivered
// messages run as ordinary kernel events on the partition's own kernel
// (virtual time = the window boundary), so handlers may schedule,
// trace, open spans, and touch any state owned by the partition.
func (p *Partition) OnDeliver(fn func(Message)) { p.deliver = fn }

// PartitionStat is one shard's share of a partitioned run, on the
// wall-clock telemetry plane (the Steps count is deterministic; Wall is
// real time and feeds runstats manifests, never drift-gated artefacts).
type PartitionStat struct {
	Steps uint64        // events executed by the shard's kernel
	Wall  time.Duration // wall-clock spent advancing the shard
}

// PartitionSet advances P kernels in lock-step epoch windows with
// deterministic mailbox exchange at every boundary. The zero value is
// not usable; construct with NewPartitionSet.
type PartitionSet struct {
	epoch time.Duration
	parts []*Partition
}

// NewPartitionSet returns an empty set with the given epoch width Δ.
// Δ is part of the scenario definition (like a seed): it bounds
// cross-partition latency and therefore shapes delivery times.
func NewPartitionSet(epoch time.Duration) *PartitionSet {
	if epoch <= 0 {
		panic(fmt.Sprintf("sim: NewPartitionSet with non-positive epoch %v", epoch))
	}
	return &PartitionSet{epoch: epoch}
}

// Add registers a kernel as the next partition and returns its handle.
// Indices are assigned in Add order and are part of the deterministic
// message ordering, so all partitions must be added before the first
// RunUntil call, in a fixed scenario-defined order.
func (ps *PartitionSet) Add(k *Kernel) *Partition {
	p := &Partition{K: k, set: ps, idx: len(ps.parts)}
	ps.parts = append(ps.parts, p)
	return p
}

// Partition returns the handle at index i.
func (ps *PartitionSet) Partition(i int) *Partition { return ps.parts[i] }

// Stats reports each shard's executed-event count and accumulated
// advance wall time, in partition order.
func (ps *PartitionSet) Stats() []PartitionStat {
	out := make([]PartitionStat, len(ps.parts))
	for i, p := range ps.parts {
		out[i] = PartitionStat{Steps: p.K.Steps(), Wall: p.wall}
	}
	return out
}

// earliestEvent returns the earliest queued event time across all
// partitions.
func (ps *PartitionSet) earliestEvent() (time.Time, bool) {
	var best time.Time
	found := false
	for _, p := range ps.parts {
		if at, ok := p.K.NextEventAt(); ok && (!found || at.Before(best)) {
			best, found = at, true
		}
	}
	return best, found
}

// RunUntil advances every partition to the deadline in epoch windows,
// delivering cross-partition mail at each boundary, using up to
// `workers` OS threads per window (<= 1 runs on the calling goroutine).
// The worker count never changes simulation bytes. Idle stretches are
// skipped in one hop: a window always opens at the earliest queued
// event across the set.
//
// The set adds no cancellation of its own (DESIGN.md §13/§14): a
// supervisor cancels every shard kernel, each shard unwinds at its next
// step boundary, and RunPool relays the lowest-index shard's *Cancelled
// (or any other panic) to the calling goroutine after the window's
// join, exactly like a single supervised kernel.
func (ps *PartitionSet) RunUntil(deadline time.Time, workers int) {
	for {
		next, ok := ps.earliestEvent()
		if !ok || next.After(deadline) {
			break
		}
		end := next.Add(ps.epoch)
		if end.After(deadline) {
			end = deadline
		}
		RunPool(len(ps.parts), workers, func(i int) {
			p := ps.parts[i]
			t0 := time.Now()
			p.K.RunUntil(end)
			p.wall += time.Since(t0)
		})
		ps.deliverAll(end)
	}
	// Nothing left at or before the deadline: advance every clock to it.
	for _, p := range ps.parts {
		p.K.RunUntil(deadline)
	}
}

// deliverAll is the epoch barrier's mailbox exchange: every outbox
// entry is sorted by (At, From, Seq) and scheduled onto its destination
// kernel at the boundary time `at`, in that order. It runs on the
// coordinating goroutine with every worker parked, so no locking is
// needed — and the resulting schedule sequence on each destination is
// a pure function of simulation state.
func (ps *PartitionSet) deliverAll(at time.Time) {
	total := 0
	for _, p := range ps.parts {
		total += len(p.outbox)
	}
	if total == 0 {
		return
	}
	all := make([]routed, 0, total)
	for _, p := range ps.parts {
		all = append(all, p.outbox...)
		p.outbox = p.outbox[:0]
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].msg, all[j].msg
		if !a.At.Equal(b.At) {
			return a.At.Before(b.At)
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.Seq < b.Seq
	})
	for _, r := range all {
		dst := ps.parts[r.to]
		if dst.deliver == nil {
			panic(fmt.Sprintf("sim: partition %d received %q from partition %d with no OnDeliver handler",
				r.to, r.msg.Kind, r.msg.From))
		}
		m := r.msg
		fn := dst.deliver
		dst.K.ScheduleAt(at, "partition:mail:"+m.Kind, func() { fn(m) })
	}
}
