// Package sim provides the deterministic discrete-event simulation kernel
// that every substrate in the cyber-range is built on.
//
// The kernel maintains a virtual clock and a priority queue of scheduled
// events. Events fire in timestamp order; ties are broken by scheduling
// sequence number so that runs are fully deterministic. All randomness in
// the range must come from the kernel's seeded RNG.
//
// Each kernel also carries the world's observability state: an
// obs.Registry of metrics (the kernel itself maintains the
// sim.event.schedule / sim.event.execute / sim.event.cancel counters;
// substrates register their own) and the structured Trace whose tagged
// records export as JSONL. Both are keyed to virtual time only, so runs
// with equal seeds produce byte-identical telemetry.
package sim

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Epoch is the default virtual start time of a simulation: shortly before
// the Stuxnet campaign window described in the paper.
var Epoch = time.Date(2010, time.June, 1, 0, 0, 0, 0, time.UTC)

// Sample is one wall-clock-plane observation of a running kernel,
// delivered to a Probe from inside the hot loop. Everything in it is
// deterministic kernel state; what makes the probe plane "wall-clock" is
// that the *timing* of deliveries (every DefaultProbeEvery steps of a
// run whose wall speed varies) is only meaningful against the real
// clock, and that nothing a Probe computes may ever flow back into obs
// registries or drift-gated artefacts (DESIGN.md §12).
type Sample struct {
	VNow       time.Time // kernel virtual clock at the sampled step
	Steps      uint64    // events executed so far
	Pending    int       // event-queue depth
	PoolHits   uint64    // schedules served from the free list
	PoolMisses uint64    // schedules that had to allocate
}

// Probe receives periodic kernel-loop samples on the wall-clock
// telemetry plane (internal/runstats). Implementations must only read
// the sample: they run on the kernel's goroutine, in the middle of the
// hot loop, and must not schedule events, touch the trace, or block.
type Probe interface {
	KernelSample(s Sample)
}

// Cause is the causal context an action runs under: the span that caused
// it and the infection vector that transition would use. The kernel keeps
// an ambient Cause that ScheduleAt captures into scheduled events and
// Step reinstates around their callbacks, so causality survives timer
// hops (spooler MOF droppers, scheduled wipers, beacon ticks).
type Cause struct {
	Span   obs.Span
	Vector string
}

// Event is a scheduled callback inside the simulation. Fired and
// cancelled Event structs are recycled through the kernel's free list, so
// code outside the kernel must hold a Timer (which detects recycling),
// never a bare *Event.
type Event struct {
	at    time.Time
	seq   uint64
	name  string
	fn    func()
	cause Cause
	index int // queue slot index; -1 once popped or cancelled
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// inert. A Timer stays safe to use after its event fires or is cancelled
// even though the kernel recycles Event structs: every operation checks
// the schedule sequence number stamped at creation, so a stale handle
// can never touch a recycled event that now belongs to someone else.
type Timer struct {
	ev  *Event
	seq uint64
}

// Active reports whether the event is still queued.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.index >= 0 && t.ev.seq == t.seq
}

// At returns the virtual fire time, or the zero time if the event already
// fired, was cancelled, or the Timer is zero.
func (t Timer) At() time.Time {
	if !t.Active() {
		return time.Time{}
	}
	return t.ev.at
}

// Name returns the debug name given at scheduling time, or "" once the
// event is no longer queued.
func (t Timer) Name() string {
	if !t.Active() {
		return ""
	}
	return t.ev.name
}

// queueArity is the fan-out of the event queue's heap. Four children per
// node halve the depth of a binary heap, and a sift-down's four child
// keys share one or two cache lines (DESIGN.md §9 item 8).
const queueArity = 4

// slot is one event-queue entry. It carries the event's order key inline,
// so a sift compares contiguous memory instead of chasing two *Events.
// The fire time is split into Unix seconds and nanoseconds: that pair
// orders exactly as time.Time.Before for every time a kernel can hold,
// where UnixNano is undefined outside the years 1678-2262.
type slot struct {
	sec  int64
	nsec int64
	seq  uint64
	ev   *Event
}

// before is the queue's total order: fire time, then schedule sequence.
func (a *slot) before(b *slot) bool {
	if a.sec != b.sec {
		return a.sec < b.sec
	}
	if a.nsec != b.nsec {
		return a.nsec < b.nsec
	}
	return a.seq < b.seq
}

// eventQueue is a min-heap of slots with queueArity children per node.
// Every move writes the event's new position into Event.index, so Cancel
// removes an event in O(log n) and Timer.Active reads it in O(1).
type eventQueue []slot

// push inserts ev. The backing array grows by doubling: append grows a
// large slice by about 1.25x, which re-copies a deep queue often enough
// to show in a fleet run's allocated bytes (DESIGN.md §9 item 8).
func (q *eventQueue) push(ev *Event) {
	if len(*q) == cap(*q) {
		*q = slices.Grow(*q, max(len(*q), 256))
	}
	*q = append(*q, slot{sec: ev.at.Unix(), nsec: int64(ev.at.Nanosecond()), seq: ev.seq, ev: ev})
	q.up(len(*q) - 1)
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() *Event {
	ev := (*q)[0].ev
	q.remove(0)
	return ev
}

// remove deletes the slot at i and marks its event unqueued.
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	ev := h[i].ev
	last := h[n]
	h[n] = slot{} // the backing array must not pin a retired event
	*q = h[:n]
	if i < n {
		// The last slot fills the hole. It came from another subtree,
		// so it may belong below i or above it.
		h[i] = last
		q.up(q.down(i))
	}
	ev.index = -1
}

// up moves the slot at i towards the root until its parent is earlier.
func (q eventQueue) up(i int) {
	s := q[i]
	for i > 0 {
		p := (i - 1) / queueArity
		if !s.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = i
		i = p
	}
	q[i] = s
	s.ev.index = i
}

// down moves the slot at i towards the leaves until no child is earlier
// and returns where it settled.
func (q eventQueue) down(i int) int {
	n := len(q)
	s := q[i]
	for {
		first := queueArity*i + 1
		if first >= n {
			break
		}
		m := first
		for c := first + 1; c < min(first+queueArity, n); c++ {
			if q[c].before(&q[m]) {
				m = c
			}
		}
		if !q[m].before(&s) {
			break
		}
		q[i] = q[m]
		q[i].ev.index = i
		i = m
	}
	q[i] = s
	s.ev.index = i
	return i
}

// Kernel is the discrete-event simulation core. It is not safe for
// concurrent use; the entire range is single-threaded and deterministic.
type Kernel struct {
	now   time.Time
	seq   uint64
	queue eventQueue
	// free recycles fired/cancelled Event structs. A 30,000-host timer
	// storm schedules millions of events; without the pool every one is a
	// fresh heap allocation that survives until the next GC cycle.
	free  []*Event
	rng   *RNG
	trace *Trace
	steps uint64
	spans uint64 // last span ID allocated by OpenSpan
	cause Cause  // ambient causal context

	metrics *obs.Registry
	// Cached counter handles: scheduling and stepping are the hottest
	// paths in the range, so they must not pay a map lookup per event.
	mSchedule, mExecute, mCancel *obs.Counter
	// Profiling: per-handler-class execution counters (class = event name
	// up to the first ':', so host-suffixed names share one series) and a
	// histogram of virtual-time deltas between consecutive steps.
	handlerCounters map[string]*obs.Counter
	hVTDelta        *obs.Histogram
	lastStepAt      time.Time
	haveLastStep    bool

	// Wall-clock-plane sampling (DESIGN.md §12). probe is nil unless a
	// telemetry collector attached one, so the disabled hot-loop cost is
	// a single pointer check. poolHits/poolMisses/poolPuts are
	// deterministic bookkeeping of the free list, kept out of the obs
	// registry so the metrics snapshot bytes are independent of
	// telemetry. Get/put balance (hits+misses == puts once a run is
	// fully wound down) must hold even across an aborted run.
	probe      Probe
	poolHits   uint64
	poolMisses uint64
	poolPuts   uint64

	// cancelReq is the only cross-goroutine field on the kernel: a
	// pending CancelRun cause, honoured at the next step boundary
	// (cancel.go, DESIGN.md §13).
	cancelReq atomic.Pointer[cancelState]
	// lastHandler is the event-name class of the most recently executed
	// event, reported in abort diagnostics.
	lastHandler string
}

// Option configures a Kernel at construction time.
type Option func(*Kernel)

// WithStart sets the virtual start time (default Epoch).
func WithStart(t time.Time) Option {
	return func(k *Kernel) { k.now = t }
}

// WithSeed seeds the kernel RNG (default 1).
func WithSeed(seed uint64) Option {
	return func(k *Kernel) { k.rng = NewRNG(seed) }
}

// WithTraceCapacity sets the trace ring-buffer capacity (default 4096).
func WithTraceCapacity(n int) Option {
	return func(k *Kernel) { k.trace = NewTrace(n) }
}

// NewKernel returns a kernel positioned at Epoch with a seeded RNG.
func NewKernel(opts ...Option) *Kernel {
	k := &Kernel{
		now:     Epoch,
		rng:     NewRNG(1),
		trace:   NewTrace(4096),
		metrics: obs.NewRegistry(),
	}
	k.mSchedule = k.metrics.Counter("sim.event.schedule")
	k.mExecute = k.metrics.Counter("sim.event.execute")
	k.mCancel = k.metrics.Counter("sim.event.cancel")
	k.handlerCounters = make(map[string]*obs.Counter)
	k.hVTDelta = k.metrics.Histogram("sim.step.vtdelta-seconds", VTDeltaBuckets)
	for _, opt := range opts {
		opt(k)
	}
	return k
}

// VTDeltaBuckets is the bucket layout of the sim.step.vtdelta-seconds
// histogram: virtual-time gaps between consecutive steps, from sub-second
// bursts to multi-day quiet stretches.
var VTDeltaBuckets = []float64{0, 1, 60, 600, 3600, 6 * 3600, 24 * 3600, 7 * 24 * 3600}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Time { return k.now }

// RNG returns the kernel's deterministic random source.
func (k *Kernel) RNG() *RNG { return k.rng }

// Trace returns the kernel's structured trace log.
func (k *Kernel) Trace() *Trace { return k.trace }

// Metrics returns the kernel's metrics registry. Substrates register
// their counters and histograms here; names follow the
// subsystem.noun.verb convention (DESIGN.md §6).
func (k *Kernel) Metrics() *obs.Registry { return k.metrics }

// Steps reports how many events have been executed so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// SpanCount reports how many causal spans OpenSpan has allocated. Result
// capture uses it to offset span IDs when merging multi-kernel traces.
func (k *Kernel) SpanCount() uint64 { return k.spans }

// Cause returns the ambient causal context.
func (k *Kernel) Cause() Cause { return k.cause }

// WithCause runs fn with c installed as the ambient causal context,
// restoring the previous context (and the trace's ambient span stamp)
// afterwards. Use it to attribute a synchronous action — an exploit
// delivering a dropper, an update MITM, a C&C order being applied — to
// the episode that caused it.
func (k *Kernel) WithCause(c Cause, fn func()) {
	prev := k.cause
	k.cause = c
	k.trace.setAmbient(c.Span)
	fn()
	k.cause = prev
	k.trace.setAmbient(prev.Span)
}

// OpenSpan allocates a new causal episode and emits its opening trace
// record. The parent is the ambient cause's span (zero makes this a
// root); the edge vector is the explicit vector argument, falling back
// to the ambient cause's vector, then "root". The opening record carries
// the vector as a tag so provenance reconstruction can label edges.
//
// OpenSpan does NOT install the new span as the ambient cause — callers
// wrap the actions belonging to the episode in WithCause explicitly.
func (k *Kernel) OpenSpan(cat Category, actor, msg, vector string, tags ...obs.Tag) obs.Span {
	k.spans++
	span := obs.Span(k.spans)
	parent := k.cause.Span
	if vector == "" {
		vector = k.cause.Vector
	}
	if vector == "" {
		vector = "root"
	}
	all := make([]obs.Tag, 0, len(tags)+1)
	all = append(all, obs.T("vector", vector))
	all = append(all, tags...)
	k.trace.EmitSpan(k.now, cat, actor, msg, span, parent, all...)
	return span
}

// Pending reports how many events are waiting in the queue.
func (k *Kernel) Pending() int { return len(k.queue) }

// NextEventAt returns the virtual timestamp of the earliest queued
// event, or false when the queue is empty. The epoch coordinator uses
// it to skip idle stretches in one hop (partition.go).
func (k *Kernel) NextEventAt() (time.Time, bool) {
	if len(k.queue) == 0 {
		return time.Time{}, false
	}
	return k.queue[0].ev.at, true
}

// PoolStat is the event free list's get/put ledger. Gets (Hits+Misses)
// count Schedule calls; Puts count events returned to the pool — fired,
// cancelled, or released by an aborted run. Once a kernel is fully wound
// down (queue empty or run aborted), Hits+Misses == Puts: a supervisor
// abort must not leak pooled events (DESIGN.md §13).
type PoolStat struct {
	Hits   uint64 // schedules served from the free list
	Misses uint64 // schedules that had to allocate
	Puts   uint64 // events returned to the free list
	Free   int    // structs idle in the free list right now
}

// Balanced reports whether every scheduled event has been returned to
// the pool (no events queued or leaked).
func (s PoolStat) Balanced() bool { return s.Hits+s.Misses == s.Puts }

// PoolStats reports the free list's get/put ledger. The counts are
// deterministic (they follow the schedule/fire sequence exactly) but
// live outside the obs registry: they describe the runtime's memory
// behaviour, not the simulated world.
func (k *Kernel) PoolStats() PoolStat {
	return PoolStat{Hits: k.poolHits, Misses: k.poolMisses, Puts: k.poolPuts, Free: len(k.free)}
}

// DefaultProbeEvery is the probe sampling cadence: one sample per 1024
// executed events keeps the hot-loop cost of an attached probe under
// 0.1%.
const DefaultProbeEvery = 1024

// teeProbe fans one sample stream out to two probes in attach order.
type teeProbe struct{ a, b Probe }

func (t teeProbe) KernelSample(s Sample) {
	t.a.KernelSample(s)
	t.b.KernelSample(s)
}

// AttachProbe installs a wall-clock telemetry probe, sampled every
// DefaultProbeEvery executed events, and chains it onto whatever probe
// is already installed: every delivered sample reaches both. The
// telemetry collector and the stall watchdog both ride the same hook
// this way without knowing about each other. The probe plane is
// read-only: attaching one never changes scheduling, tracing, metrics,
// or RNG draws, so outputs stay byte-identical (asserted by
// TestProbeDoesNotPerturbDeterminism).
func (k *Kernel) AttachProbe(p Probe) {
	if p == nil {
		return
	}
	if k.probe == nil {
		k.probe = p
		return
	}
	k.probe = teeProbe{a: k.probe, b: p}
}

// FlushProbe delivers one final sample to the attached probe (no-op
// without one). Callers flush after a run so the tail of a workload —
// up to DefaultProbeEvery-1 steps — is not lost from wall-clock totals.
func (k *Kernel) FlushProbe() {
	if k.probe == nil {
		return
	}
	k.probe.KernelSample(k.sample())
}

// sample snapshots the probe-visible kernel state.
func (k *Kernel) sample() Sample {
	return Sample{
		VNow:       k.now,
		Steps:      k.steps,
		Pending:    len(k.queue),
		PoolHits:   k.poolHits,
		PoolMisses: k.poolMisses,
	}
}

// Schedule enqueues fn to run after delay d. Negative delays are treated as
// zero. The returned Timer may be passed to Cancel.
func (k *Kernel) Schedule(d time.Duration, name string, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return k.ScheduleAt(k.now.Add(d), name, fn)
}

// ScheduleAt enqueues fn to run at virtual time t. Times in the past are
// clamped to now.
func (k *Kernel) ScheduleAt(t time.Time, name string, fn func()) Timer {
	if fn == nil {
		panic("sim: ScheduleAt with nil fn")
	}
	if t.Before(k.now) {
		t = k.now
	}
	k.seq++
	var ev *Event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		*ev = Event{at: t, seq: k.seq, name: name, fn: fn, cause: k.cause}
		k.poolHits++
	} else {
		ev = &Event{at: t, seq: k.seq, name: name, fn: fn, cause: k.cause}
		k.poolMisses++
	}
	k.queue.push(ev)
	k.mSchedule.Inc()
	return Timer{ev: ev, seq: ev.seq}
}

// release clears a popped or cancelled event and returns its struct to
// the free list. Nilling the closure (and the name string) matters: a
// fired event's fn captures hosts, drives and implant state, and a
// retained pointer in the queue's backing array would keep entire
// infection chains alive for the rest of the run.
func (k *Kernel) release(ev *Event) {
	ev.fn = nil
	ev.name = ""
	ev.cause = Cause{}
	k.poolPuts++
	k.free = append(k.free, ev)
}

// Every schedules fn to run repeatedly with the given period, starting one
// period from now, until the returned cancel function is called. Cancelling
// also removes the already-scheduled next tick from the queue, so Pending
// drops immediately and Drain never burns steps on dead ticks.
func (k *Kernel) Every(period time.Duration, name string, fn func()) (cancel func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive period %v", period))
	}
	stopped := false
	var pending Timer
	var tick func()
	tick = func() {
		pending = Timer{}
		if stopped {
			return
		}
		fn()
		if !stopped {
			pending = k.Schedule(period, name, tick)
		}
	}
	pending = k.Schedule(period, name, tick)
	return func() {
		stopped = true
		k.Cancel(pending)
		pending = Timer{}
	}
}

// Cancel removes a previously scheduled event. Cancelling a Timer whose
// event already fired (or was already cancelled), or the zero Timer, is a
// no-op — the sequence check makes stale handles inert even after the
// Event struct is recycled.
func (k *Kernel) Cancel(t Timer) {
	if !t.Active() {
		return
	}
	ev := t.ev
	k.queue.remove(ev.index)
	k.mCancel.Inc()
	k.release(ev)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed. A pending
// CancelRun is honoured here, before the next event is popped — the
// step boundary is the only place a supervised run may be torn down
// (the abort unwinds as a *Cancelled panic; see cancel.go).
func (k *Kernel) Step() bool {
	k.abortIfCancelled()
	if len(k.queue) == 0 {
		return false
	}
	ev := k.queue.pop()
	if k.haveLastStep {
		k.hVTDelta.Observe(ev.at.Sub(k.lastStepAt).Seconds())
	}
	k.lastStepAt = ev.at
	k.haveLastStep = true
	k.now = ev.at
	k.steps++
	k.mExecute.Inc()
	k.handlerCounter(ev.name).Inc()
	if k.probe != nil && k.steps%DefaultProbeEvery == 0 {
		k.probe.KernelSample(k.sample())
	}
	k.lastHandler = ev.name
	// Reinstate the causal context captured at scheduling time, so work
	// done inside timer callbacks attributes to the episode that armed
	// the timer. The callback is read out before it runs because the
	// struct is recycled (and its closure dropped) as soon as it returns.
	fn := ev.fn
	prev := k.cause
	k.cause = ev.cause
	k.trace.setAmbient(ev.cause.Span)
	k.release(ev)
	fn()
	k.cause = prev
	k.trace.setAmbient(prev.Span)
	return true
}

// handlerCounter returns the profiling counter for an event name's
// handler class — the name up to the first ':' (host-suffixed schedules
// like "task:wipe@WS-1" share one series, keeping cardinality bounded at
// fleet scale). The class is sanitized to the metric charset on first
// use and the handle cached, so Step pays one short map lookup.
func (k *Kernel) handlerCounter(name string) *obs.Counter {
	class := name
	if i := strings.IndexByte(class, ':'); i >= 0 {
		class = class[:i]
	}
	if c, ok := k.handlerCounters[class]; ok {
		return c
	}
	c := k.metrics.Counter("sim.handler." + sanitizeMetricWord(class) + ".execute")
	k.handlerCounters[class] = c
	return c
}

// sanitizeMetricWord maps an arbitrary event-name class onto the metric
// charset (lowercase, digits, '.', '_', '-').
func sanitizeMetricWord(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		case c >= 'A' && c <= 'Z':
			b[i] = c + ('a' - 'A')
		default:
			b[i] = '-'
		}
	}
	if len(b) == 0 {
		return "unnamed"
	}
	return string(b)
}

// RunUntil executes events until the queue is empty or the next event
// would fire after deadline, then advances the clock to deadline if it is
// not there yet. The only way to halt a run early is CancelRun, which
// unwinds at a step boundary (cancel.go).
func (k *Kernel) RunUntil(deadline time.Time) {
	for len(k.queue) > 0 && !k.queue[0].ev.at.After(deadline) {
		k.Step()
	}
	if k.now.Before(deadline) {
		k.now = deadline
	}
}

// RunFor is RunUntil(now + d).
func (k *Kernel) RunFor(d time.Duration) {
	k.RunUntil(k.now.Add(d))
}

// Drain executes events until the queue is empty or maxSteps events have
// run. It returns the number of events executed. Use a sensible maxSteps to
// guard against self-perpetuating schedules (periodic timers).
func (k *Kernel) Drain(maxSteps uint64) uint64 {
	var n uint64
	for n < maxSteps && k.Step() {
		n++
	}
	return n
}
