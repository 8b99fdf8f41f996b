package runstats

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// Manifest is the JSON run record `cyberlab -manifest` writes: one
// wall-clock profile of an invocation. Every field lives on the
// nondeterministic plane — the Plane/Note header says so in-band, so a
// manifest can never be mistaken for (or diffed like) a drift-gated
// artefact.
type Manifest struct {
	Plane string `json:"plane"` // always "wall-clock"
	Note  string `json:"note"`

	StartedAt  time.Time `json:"started_at"`
	WallSecs   float64   `json:"wall_seconds"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`

	Kernel      KernelStats      `json:"kernel"`
	Heap        HeapStats        `json:"heap"`
	Supervision SupervisionStats `json:"supervision"`
	// PartitionWall is the per-shard breakdown of a partitioned world
	// (DESIGN.md §14), in partition-index order; absent for
	// unpartitioned runs.
	PartitionWall []PartitionEntry `json:"partition_wall,omitempty"`
	Phases        []PhaseEntry     `json:"phases,omitempty"`
	// Experiments is the per-experiment wall-clock breakdown, in finish
	// order (nondeterministic under -parallel by nature).
	Experiments []ExperimentEntry `json:"experiments,omitempty"`
}

// KernelStats aggregates every sampled kernel's hot-loop telemetry.
// With a partitioned world (DESIGN.md §14) the counts sum across every
// shard kernel; MaxQueueDepth is the deepest queue any one kernel
// sampled, the depth each heap operation works on, and the same on
// every run of one workload.
type KernelStats struct {
	Kernels       int64   `json:"kernels"`
	Hosts         int64   `json:"hosts"`
	Partitions    int64   `json:"partitions"`
	EventsFired   uint64  `json:"events_fired"`
	EventsPerSec  float64 `json:"events_per_wall_second"`
	NsPerEvent    float64 `json:"ns_per_event"`
	PoolHits      uint64  `json:"pool_hits"`
	PoolMisses    uint64  `json:"pool_misses"`
	PoolHitRate   float64 `json:"pool_hit_rate"`
	MaxQueueDepth int64   `json:"max_queue_depth"`
	VTimeReached  string  `json:"vtime_reached,omitempty"`
}

// PartitionEntry is one shard's wall record in the manifest: events it
// stepped inside epoch windows, wall time spent there, and the derived
// per-event cost. Wall times are per-shard worker time, so their sum
// can exceed total wall when shards advance concurrently.
type PartitionEntry struct {
	Index      int     `json:"index"`
	Events     uint64  `json:"events"`
	WallSecs   float64 `json:"wall_seconds"`
	NsPerEvent float64 `json:"ns_per_event"`
}

// SupervisionStats counts the supervision layer's interventions
// (DESIGN.md §13). All zero on an undisturbed run; the section is
// always present so consumers can rely on the key.
type SupervisionStats struct {
	Stalls                uint64 `json:"stalls"`
	DeadlineAborts        uint64 `json:"deadline_aborts"`
	Cancels               uint64 `json:"cancels"`
	Retries               uint64 `json:"retries"`
	DeterminismViolations uint64 `json:"determinism_violations"`
	JournalServed         uint64 `json:"journal_served"`
}

// HeapStats are the Go heap watermarks of the run.
type HeapStats struct {
	MaxAllocBytes uint64 `json:"max_alloc_bytes"`
	SysBytes      uint64 `json:"sys_bytes"`
	NumGC         uint32 `json:"num_gc"`
}

// PhaseEntry is one named wall-timer region. Regions nest ("run"
// contains "fleet-build"), so entries are a breakdown, not a partition.
type PhaseEntry struct {
	Name     string  `json:"name"`
	WallSecs float64 `json:"wall_seconds"`
}

// ExperimentEntry is one experiment's wall record in the manifest.
type ExperimentEntry struct {
	ID       string  `json:"id"`
	Seed     uint64  `json:"seed"`
	WallSecs float64 `json:"wall_seconds"`
	PctWall  float64 `json:"pct_of_total"`
	Ok       bool    `json:"ok"`
}

// manifestNote is stamped into every manifest so downstream consumers
// cannot miss the plane separation.
const manifestNote = "wall-clock plane: values vary run to run; excluded from all determinism drift gates (DESIGN.md §12)"

// Manifest freezes the collector into a run record. Call it after the
// workload finishes (and after kernels flushed their probes).
func (c *Collector) Manifest() *Manifest {
	c.SampleHeap()
	wall := time.Since(c.start)
	events := c.events.Load()
	hits, misses := c.poolHits.Load(), c.poolMisses.Load()

	m := &Manifest{
		Plane:      "wall-clock",
		Note:       manifestNote,
		StartedAt:  c.start.UTC(),
		WallSecs:   wall.Seconds(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel: KernelStats{
			Kernels:       c.kernels.Load(),
			Hosts:         c.hosts.Load(),
			Partitions:    c.partitions.Load(),
			EventsFired:   events,
			MaxQueueDepth: c.queueMax.Load(),
			PoolHits:      hits,
			PoolMisses:    misses,
		},
		Heap: HeapStats{
			MaxAllocBytes: c.heapMax.Load(),
			SysBytes:      c.heapSys.Load(),
			NumGC:         c.numGC.Load(),
		},
		Supervision: SupervisionStats{
			Stalls:                c.supStalls.Load(),
			DeadlineAborts:        c.supDeadlines.Load(),
			Cancels:               c.supCancels.Load(),
			Retries:               c.supRetries.Load(),
			DeterminismViolations: c.supViolations.Load(),
			JournalServed:         c.supJournal.Load(),
		},
	}
	if events > 0 {
		m.Kernel.EventsPerSec = float64(events) / wall.Seconds()
		m.Kernel.NsPerEvent = float64(wall.Nanoseconds()) / float64(events)
	}
	if hits+misses > 0 {
		m.Kernel.PoolHitRate = float64(hits) / float64(hits+misses)
	}
	if t := c.VTimeMax(); !t.IsZero() {
		m.Kernel.VTimeReached = t.Format(time.RFC3339)
	}
	for _, p := range c.PartitionWalls() {
		entry := PartitionEntry{Index: p.Index, Events: p.Steps, WallSecs: p.Wall.Seconds()}
		if p.Steps > 0 {
			entry.NsPerEvent = float64(p.Wall.Nanoseconds()) / float64(p.Steps)
		}
		m.PartitionWall = append(m.PartitionWall, entry)
	}

	c.mu.Lock()
	for _, name := range c.phaseOrder {
		m.Phases = append(m.Phases, PhaseEntry{Name: name, WallSecs: c.phases[name].Seconds()})
	}
	for _, e := range c.exps {
		entry := ExperimentEntry{ID: e.ID, Seed: e.Seed, WallSecs: e.Wall.Seconds(), Ok: e.Ok}
		if wall > 0 {
			entry.PctWall = 100 * e.Wall.Seconds() / wall.Seconds()
		}
		m.Experiments = append(m.Experiments, entry)
	}
	c.mu.Unlock()
	return m
}

// WriteJSON renders the manifest as indented JSON plus a trailing
// newline.
func (m *Manifest) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
