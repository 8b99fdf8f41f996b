package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/runstats"
	"repro/internal/sim"
)

// The parallel experiment runner. Every experiment builds its own World —
// its own kernel, RNG, internet, PKI and hosts — and never touches
// another world's state, so experiments are embarrassingly parallel
// across worker goroutines. The only shared data a worker reads is the
// experiment registry, never written during a run, the run's Env, which
// each experiment gets a copy of, and package-level constants. Reports
// always come back in input order, so rendered output is byte-identical
// no matter how many workers ran.

// RunReport is the outcome of one experiment execution inside the
// parallel runner.
type RunReport struct {
	ID     string
	Seed   uint64
	Result *Result // nil when Err != nil
	Err    error
	Wall   time.Duration

	// Partial marks an experiment aborted mid-run by the supervision
	// layer (stall watchdog, deadline, or graceful shutdown); Err carries
	// the cause and the kernel diagnostic.
	Partial bool
	// Skipped marks an experiment that never started because a shutdown
	// was already pending when its worker picked it up.
	Skipped bool
	// FromJournal marks a report replayed from a resume journal instead
	// of executed (Attempts is 0 for such reports).
	FromJournal bool
	// Attempts counts executions, >1 only under -max-retries.
	Attempts int
	// Violation flags a determinism violation: a retry of this experiment
	// produced different outcome bytes than the first attempt. The
	// latest attempt's outcome is kept, but the run must not be trusted
	// (and is never journaled).
	Violation bool
}

// runOne executes a single experiment, converting panics into errors so
// one broken experiment can never truncate a sweep report. The run gets
// a supervision scope on its own copy of env: the kernels its worlds
// build register with the scope, a supervisor abort unwinds here as a
// *sim.Cancelled and becomes a partial report, and a shutdown pending
// before the start skips the experiment outright. When a wall-clock
// collector is active it gets the experiment's wall time and pass/fail —
// telemetry that stays on the nondeterministic plane (the deterministic
// Result never carries wall data).
func runOne(env *Env, id string, seed uint64) (rep RunReport) {
	rep = RunReport{ID: id, Seed: seed}
	if cause := env.cause(); cause != nil {
		rep.Skipped = true
		rep.Err = fmt.Errorf("experiment %s: skipped: %v", id, cause)
		return rep
	}
	runner, ok := LookupExperiment(id)
	if !ok {
		rep.Err = fmt.Errorf("experiment %s: unknown ID", id)
		return rep
	}
	scoped := Env{}
	if env != nil {
		scoped = *env
	}
	sc := &expScope{id: id}
	scoped.scope = sc
	stop := sc.supervise(&scoped)
	started := time.Now()
	defer func() {
		stop()
		if r := recover(); r != nil {
			rep.Result = nil
			rep.Wall = time.Since(started)
			if c, isCancel := sim.AsCancelled(r); isCancel {
				rep.Partial = true
				rep.Err = fmt.Errorf("experiment %s: aborted: %w", id, c)
				if leak := poolLeaks(sc); leak != "" {
					rep.Err = fmt.Errorf("%w; %s", rep.Err, leak)
				}
			} else {
				rep.Err = fmt.Errorf("experiment %s: panic: %v", id, r)
			}
		}
		if c := runstats.Active(); c != nil {
			c.RecordExperiment(id, seed, rep.Wall,
				rep.Err == nil && rep.Result != nil && rep.Result.Pass)
		}
	}()
	defer runstats.Phase("run")()
	rep.Result, rep.Err = runner(&scoped, seed)
	rep.Wall = time.Since(started)
	if rep.Err != nil {
		rep.Err = fmt.Errorf("experiment %s: %w", id, rep.Err)
	} else {
		rep.Result.attachProvenance()
	}
	return rep
}

// poolLeaks audits the event-pool ledger of every kernel an aborted
// experiment built: allocations must equal releases plus events still
// sitting in a queue (the aborted kernel drained its own queue; sibling
// kernels of a multi-world experiment may legitimately still hold
// scheduled events). Returns "" when the ledgers balance.
func poolLeaks(sc *expScope) string {
	var leaked uint64
	var bad int
	for _, k := range sc.kernelList() {
		ps := k.PoolStats()
		gets := ps.Hits + ps.Misses
		accounted := ps.Puts + uint64(k.Pending())
		if gets > accounted {
			leaked += gets - accounted
			bad++
		}
	}
	if leaked == 0 {
		return ""
	}
	return fmt.Sprintf("event pool leaked %d events across %d kernels", leaked, bad)
}

// outcomeFingerprint hashes everything deterministic about a report —
// the full result payload on success, the error text on failure — so a
// retried experiment can be checked for byte-identical reproduction.
func outcomeFingerprint(rep RunReport) string {
	h := sha256.New()
	switch {
	case rep.Err != nil:
		io.WriteString(h, "err\x00")
		io.WriteString(h, rep.Err.Error())
	case rep.Result != nil:
		payload, err := encodeResultPayload(rep.Result)
		if err != nil {
			io.WriteString(h, "encode-failure\x00")
			io.WriteString(h, err.Error())
		} else {
			h.Write(payload)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RunOptions extends RunExperiments with the run environment and the
// supervision-layer knobs.
type RunOptions struct {
	// Env is the environment every experiment runs under (nil is the
	// zero Env).
	Env *Env
	// Workers sizes the pool (<=1 is sequential).
	Workers int
	// MaxRetries re-runs a failed experiment up to this many extra times.
	// Because experiments are deterministic, a retry must reproduce the
	// first attempt's outcome byte for byte; a divergence flags the
	// report's Violation bit instead of being papered over.
	MaxRetries int
	// Journal, when set, serves already-journaled (experiment, seed)
	// outcomes without re-running them and records fresh completions
	// (fsync'd per record) for the next resume.
	Journal *Journal
}

// runSupervised wraps runOne with the journal short-circuit and the
// bounded-retry determinism self-check.
func runSupervised(id string, seed uint64, opt RunOptions) RunReport {
	if opt.Journal != nil {
		if rep, ok := opt.Journal.Lookup(id, seed); ok {
			if c := runstats.Active(); c != nil {
				c.CountJournalServed()
			}
			return rep
		}
	}
	rep := runOne(opt.Env, id, seed)
	rep.Attempts = 1
	if rep.Err != nil && !rep.Partial && !rep.Skipped && opt.MaxRetries > 0 {
		// Retry is a determinism self-check, not flake laundering: every
		// attempt must reproduce the first attempt's bytes exactly.
		first := outcomeFingerprint(rep)
		for rep.Err != nil && !rep.Partial && !rep.Skipped &&
			rep.Attempts <= opt.MaxRetries && opt.Env.cause() == nil {
			next := runOne(opt.Env, id, seed)
			next.Attempts = rep.Attempts + 1
			next.Violation = rep.Violation
			if c := runstats.Active(); c != nil {
				c.CountRetry()
			}
			if !next.Skipped && !next.Partial && outcomeFingerprint(next) != first {
				next.Violation = true
				if c := runstats.Active(); c != nil {
					c.CountViolation()
				}
			}
			rep = next
		}
	}
	if opt.Journal != nil {
		opt.Journal.Record(rep)
	}
	return rep
}

// RunExperiments executes the given experiment IDs with one seed under
// the zero Env across a pool of workers, returning reports in input
// order regardless of worker count. Unknown IDs and experiment failures
// become per-report errors; the remaining experiments still run.
func RunExperiments(ids []string, seed uint64, workers int) []RunReport {
	return RunExperimentsOpts(ids, seed, RunOptions{Workers: workers})
}

// RunExperimentsOpts is RunExperiments with the full option set.
func RunExperimentsOpts(ids []string, seed uint64, opt RunOptions) []RunReport {
	if c := runstats.Active(); c != nil {
		c.SetTotalExperiments(len(ids))
	}
	reports := make([]RunReport, len(ids))
	sim.RunPool(len(ids), opt.Workers, func(i int) {
		reports[i] = runSupervised(ids[i], seed, opt)
	})
	return reports
}

// --- Multi-seed Monte Carlo sweep ---

// MetricStat aggregates one metric across the seeds of a sweep.
type MetricStat struct {
	Name string
	Unit string
	Min  float64
	Mean float64
	Max  float64
}

// SweepEntry aggregates one experiment across every seed of a sweep.
type SweepEntry struct {
	ID      string
	Title   string
	Seeds   int           // runs attempted (one per seed)
	Passes  int           // runs whose result reproduced
	Errors  []error       // per-seed runner errors, seed order
	Metrics []MetricStat  // first-seen metric order
	Wall    time.Duration // summed wall clock across seeds
	// Obs merges the experiment's registry snapshots across every seed
	// (counter sums grow with the seed count; gauges keep the last fold).
	Obs obs.Snapshot
}

// SweepSeeds runs every (experiment, seed) pair under env across one
// worker pool and aggregates per-metric min/mean/max across seeds.
// Entries come back in the order of ids and the aggregation is
// deterministic regardless of worker count, because per-pair reports
// land in a fixed slot before anything is folded.
func SweepSeeds(env *Env, ids []string, seeds []uint64, workers int) []SweepEntry {
	if len(ids) == 0 || len(seeds) == 0 {
		return nil
	}
	if c := runstats.Active(); c != nil {
		c.SetTotalExperiments(len(ids) * len(seeds))
	}
	reports := make([]RunReport, len(ids)*len(seeds))
	sim.RunPool(len(reports), workers, func(i int) {
		reports[i] = runOne(env, ids[i/len(seeds)], seeds[i%len(seeds)])
		if res := reports[i].Result; res != nil {
			// A sweep only needs aggregates; retaining every seed's trace
			// would hold len(ids)*len(seeds) ring buffers in memory.
			res.Events = nil
		}
	})

	entries := make([]SweepEntry, len(ids))
	for ei, id := range ids {
		e := SweepEntry{ID: id}
		var order []string
		type agg struct {
			unit          string
			min, max, sum float64
			n             int
		}
		stats := make(map[string]*agg)
		for si := range seeds {
			rep := reports[ei*len(seeds)+si]
			e.Seeds++
			e.Wall += rep.Wall
			if rep.Err != nil {
				e.Errors = append(e.Errors, rep.Err)
				continue
			}
			if e.Title == "" {
				e.Title = rep.Result.Title
			}
			if rep.Result.Pass {
				e.Passes++
			}
			if err := e.Obs.Merge(rep.Result.Obs); err != nil {
				panic(err) // every seed ran this build's registries
			}
			for _, m := range rep.Result.Metrics {
				a, ok := stats[m.Name]
				if !ok {
					a = &agg{unit: m.Unit, min: m.Value, max: m.Value}
					stats[m.Name] = a
					order = append(order, m.Name)
				}
				if m.Value < a.min {
					a.min = m.Value
				}
				if m.Value > a.max {
					a.max = m.Value
				}
				a.sum += m.Value
				a.n++
			}
		}
		for _, name := range order {
			a := stats[name]
			e.Metrics = append(e.Metrics, MetricStat{
				Name: name, Unit: a.unit,
				Min: a.min, Mean: a.sum / float64(a.n), Max: a.max,
			})
		}
		entries[ei] = e
	}
	return entries
}

// RenderSweep formats a sweep's aggregate table, mirroring Result.Render.
func RenderSweep(entries []SweepEntry) string {
	var b strings.Builder
	for _, e := range entries {
		title := e.Title
		if title == "" {
			title = "(no successful run)"
		}
		fmt.Fprintf(&b, "[%s] %s — %d/%d seeds reproduced\n", e.ID, title, e.Passes, e.Seeds)
		for _, m := range e.Metrics {
			unit := m.Unit
			if unit != "" {
				unit = " " + unit
			}
			fmt.Fprintf(&b, "  %-38s min %14.4g  mean %14.4g  max %14.4g%s\n",
				m.Name, m.Min, m.Mean, m.Max, unit)
		}
		for _, err := range e.Errors {
			fmt.Fprintf(&b, "  error: %v\n", err)
		}
		b.WriteString("\n")
	}
	return b.String()
}
