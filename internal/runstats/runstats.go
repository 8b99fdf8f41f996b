// Package runstats is the wall-clock telemetry plane of the cyber-range
// (DESIGN.md §12): live observability for long fleet-scale runs,
// strictly segregated from the deterministic vtime plane that
// internal/obs serves.
//
// The segregation contract is absolute. Everything obs records —
// counters, histograms, trace events, spans — is keyed to virtual time
// and seed only, so trace/metrics/report streams are byte-identical for
// a fixed (seed, profile, mix) at any worker count; ci.sh drift-gates
// several of those streams. Everything runstats records — wall-clock
// phase timers, events per wall second, heap watermarks, queue pressure
// — varies run to run by construction. Runstats data therefore flows in
// exactly one direction: out of kernels (via read-only sim.Probe
// samples) into the Collector, and from there to stderr (the -progress
// ticker) or the JSON run manifest (`cyberlab -manifest`). Nothing here
// may ever be written into an obs registry, a kernel trace, or any
// drift-gated artefact, and enabling a collector must leave every
// deterministic byte stream unchanged (asserted by
// TestRunstatsDeterminismIsolation in internal/core).
//
// The package is process-global by design: experiments build their
// worlds deep inside runner functions, so the Collector attaches to
// kernels from NewWorld via the Active() hook rather than threading
// through every constructor. All Collector methods are safe for
// concurrent use — the parallel runner drives many kernels at once.
package runstats

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// active is the process-global collector; nil when telemetry is off
// (the default). A single atomic pointer load is the entire disabled
// cost at every instrumentation site.
var active atomic.Pointer[Collector]

// Enable installs a fresh global Collector and returns it. Telemetry
// stays on until Disable.
func Enable() *Collector {
	c := NewCollector()
	active.Store(c)
	return c
}

// Disable detaches the global collector. Kernels that already hold a
// probe keep sampling into it harmlessly; new worlds attach nothing.
func Disable() { active.Store(nil) }

// Active returns the global collector, or nil when telemetry is off.
func Active() *Collector { return active.Load() }

// Collector accumulates one CLI invocation's wall-clock telemetry:
// kernel hot-loop samples, phase timers, per-experiment wall clocks,
// and Go heap watermarks.
type Collector struct {
	start time.Time

	// Hot-path counters, fed by kernel probes on worker goroutines.
	events     atomic.Uint64 // fired kernel events (summed deltas)
	poolHits   atomic.Uint64
	poolMisses atomic.Uint64
	hosts      atomic.Int64
	kernels    atomic.Int64
	partitions atomic.Int64 // partition count of the current sharded world
	queueSum   atomic.Int64 // summed sampled queue depth across all kernels
	queueMax   atomic.Int64 // high watermark of the summed queue depth
	vtimeMax   atomic.Int64 // max sampled virtual time (ns since epoch)

	// Heap watermarks, refreshed by SampleHeap (ticker + phase edges).
	heapMax  atomic.Uint64 // high watermark of runtime HeapAlloc
	heapSys  atomic.Uint64 // last sampled HeapSys
	numGC    atomic.Uint32
	expsDone atomic.Int64
	expTotal atomic.Int64

	// Supervision-layer counters (DESIGN.md §13), fed by the stall
	// probes, the deadline and shutdown callbacks and the supervised
	// runner.
	supStalls     atomic.Uint64 // vtime-stall watchdog aborts
	supDeadlines  atomic.Uint64 // wall-clock deadline aborts
	supCancels    atomic.Uint64 // experiment cancellations, any cause
	supRetries    atomic.Uint64 // -max-retries re-executions
	supViolations atomic.Uint64 // retries that produced different bytes
	supJournal    atomic.Uint64 // experiments served from a resume journal

	mu         sync.Mutex
	phases     map[string]time.Duration
	phaseOrder []string
	exps       []ExperimentWall
	parts      map[int]*PartitionWall
}

// ExperimentWall is one experiment's wall-clock record.
type ExperimentWall struct {
	ID   string
	Seed uint64
	Wall time.Duration
	Ok   bool
}

// PartitionWall is one partition shard's cumulative wall-clock record
// (DESIGN.md §14): events stepped and wall time spent inside epoch
// windows, summed across every window the shard advanced through.
type PartitionWall struct {
	Index int
	Steps uint64
	Wall  time.Duration
}

// NewCollector returns a standalone collector (tests use this directly;
// the CLI goes through Enable).
func NewCollector() *Collector {
	return &Collector{
		start:  time.Now(),
		phases: make(map[string]time.Duration),
	}
}

// kernelProbe adapts one kernel's sim.Probe stream onto the shared
// collector. A kernel is single-goroutine, so the last-seen fields need
// no synchronisation; only the collector's counters are shared.
type kernelProbe struct {
	c           *Collector
	lastSteps   uint64
	lastHits    uint64
	lastMisses  uint64
	lastPending int64
}

// KernelSample implements sim.Probe. It must stay allocation-free: it
// runs inside the kernel hot loop. Queue depth aggregates as a summed
// per-probe delta — with a partitioned world many kernels sample
// concurrently, and a last-writer-wins store would report whichever
// shard sampled last instead of the fleet-wide pressure.
func (p *kernelProbe) KernelSample(s sim.Sample) {
	p.c.events.Add(s.Steps - p.lastSteps)
	p.lastSteps = s.Steps
	p.c.poolHits.Add(s.PoolHits - p.lastHits)
	p.lastHits = s.PoolHits
	p.c.poolMisses.Add(s.PoolMisses - p.lastMisses)
	p.lastMisses = s.PoolMisses
	sum := p.c.queueSum.Add(int64(s.Pending) - p.lastPending)
	p.lastPending = int64(s.Pending)
	atomicMax(&p.c.queueMax, sum)
	atomicMax(&p.c.vtimeMax, s.VNow.UnixNano())
}

// atomicMax raises *a to v if v is greater.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// AttachKernel installs a sampling probe on k feeding the global
// collector. No-op (and allocation-free) when telemetry is off —
// NewWorld calls this for every world it builds.
func AttachKernel(k *sim.Kernel) {
	if c := Active(); c != nil {
		c.Attach(k)
	}
}

// Attach installs a probe on k feeding this collector. It joins the
// probe chain rather than claiming the slot, so the supervision layer's
// stall watch and the telemetry plane can ride the same kernel.
func (c *Collector) Attach(k *sim.Kernel) {
	c.kernels.Add(1)
	k.AttachProbe(&kernelProbe{c: c})
}

// AddHosts records n hosts joining a fleet (shown by the progress
// ticker and the manifest).
func (c *Collector) AddHosts(n int) { c.hosts.Add(int64(n)) }

// SetPartitions records the partition count of the current sharded
// world (DESIGN.md §14). Shown by the progress ticker and stamped into
// the manifest; 0 means the run never built a partitioned world.
func (c *Collector) SetPartitions(n int) { c.partitions.Store(int64(n)) }

// Partitions returns the recorded partition count (0 when the run is
// unpartitioned).
func (c *Collector) Partitions() int64 { return c.partitions.Load() }

// RecordPartition accumulates one shard's epoch-window advance: steps
// executed and wall time spent, keyed by partition index. The fleet
// runner feeds it after each RunUntil from sim.PartitionSet.Stats().
// Values are cumulative totals, so feeding a monotone stats snapshot
// repeatedly keeps the record correct (the map overwrites per index).
func (c *Collector) RecordPartition(idx int, steps uint64, wall time.Duration) {
	c.mu.Lock()
	if c.parts == nil {
		c.parts = make(map[int]*PartitionWall)
	}
	p := c.parts[idx]
	if p == nil {
		p = &PartitionWall{Index: idx}
		c.parts[idx] = p
	}
	p.Steps = steps
	p.Wall = wall
	c.mu.Unlock()
}

// PartitionWalls returns the per-shard wall records sorted by partition
// index (empty for unpartitioned runs).
func (c *Collector) PartitionWalls() []PartitionWall {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PartitionWall, 0, len(c.parts))
	for i := 0; i < len(c.parts); i++ {
		if p, ok := c.parts[i]; ok {
			out = append(out, *p)
		}
	}
	return out
}

// SetTotalExperiments sizes the progress ticker's "done/total" gauge.
func (c *Collector) SetTotalExperiments(n int) { c.expTotal.Store(int64(n)) }

// RecordExperiment logs one experiment's wall clock; the runner calls
// it from worker goroutines as each experiment finishes.
func (c *Collector) RecordExperiment(id string, seed uint64, wall time.Duration, ok bool) {
	c.expsDone.Add(1)
	c.mu.Lock()
	c.exps = append(c.exps, ExperimentWall{ID: id, Seed: seed, Wall: wall, Ok: ok})
	c.mu.Unlock()
}

// StartPhase opens a named wall timer and returns its stop function.
// Phase regions may nest and overlap ("run" contains "fleet-build");
// each accumulates independently, so a phase total is the summed wall
// time spent inside that region across all goroutines.
func (c *Collector) StartPhase(name string) (stop func()) {
	started := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			d := time.Since(started)
			c.mu.Lock()
			if _, seen := c.phases[name]; !seen {
				c.phaseOrder = append(c.phaseOrder, name)
			}
			c.phases[name] += d
			c.mu.Unlock()
		})
	}
}

// Phase is the package-level convenience used at instrumentation sites:
// it returns a no-op stop when telemetry is off, so call sites stay one
// line (`defer runstats.Phase("fleet-build")()`).
func Phase(name string) (stop func()) {
	c := Active()
	if c == nil {
		return func() {}
	}
	return c.StartPhase(name)
}

// CountStall records a vtime-stall watchdog abort.
func (c *Collector) CountStall() { c.supStalls.Add(1) }

// CountDeadline records a wall-clock deadline abort.
func (c *Collector) CountDeadline() { c.supDeadlines.Add(1) }

// CountCancel records an experiment cancellation of any cause.
func (c *Collector) CountCancel() { c.supCancels.Add(1) }

// CountRetry records a -max-retries re-execution.
func (c *Collector) CountRetry() { c.supRetries.Add(1) }

// CountViolation records a retry that failed to reproduce the first
// attempt's bytes.
func (c *Collector) CountViolation() { c.supViolations.Add(1) }

// CountJournalServed records an experiment satisfied from a resume
// journal instead of executed.
func (c *Collector) CountJournalServed() { c.supJournal.Add(1) }

// Events returns the fired-event total sampled so far.
func (c *Collector) Events() uint64 { return c.events.Load() }

// Hosts returns the hosts-attached total.
func (c *Collector) Hosts() int64 { return c.hosts.Load() }

// VTimeMax returns the latest virtual time any kernel sample reached
// (zero time until the first sample lands).
func (c *Collector) VTimeMax() time.Time {
	ns := c.vtimeMax.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}
