package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/runstats"
	"repro/internal/sim"
)

// The supervision layer (DESIGN.md §13) makes long multi-experiment runs
// survivable: a vtime-stall watchdog riding the kernel Probe hook, per-
// experiment wall-clock deadlines, and graceful SIGINT/SIGTERM shutdown.
// Supervision lives entirely on the wall-clock plane: it may read probe
// samples and it may abort an experiment (sim.Kernel.CancelRun unwinds
// at a step boundary), but it never writes to a trace, a metrics
// registry, or any drift-gated artefact. An aborted experiment's report
// is marked partial and excluded from every determinism guarantee;
// sibling experiments' bytes are untouched because each owns its own
// world.
//
// runOne opens a scope per experiment and attaches it to the Env copy it
// hands the experiment, so every kernel a world builds under that Env
// joins the scope, whichever goroutine builds it. The scope is armed from
// the Env: a deadline cancels it through a timer, shutdown (Ctx
// cancellation) through context.AfterFunc, and a stall window through a
// watch probe on each of the scope's kernels, which checks for a stall
// on the kernel's own goroutine every time it samples.

// expScope is one in-flight experiment: its identity and every kernel
// its worlds have built so far. The scope is the unit of cancellation —
// a deadline, stall or shutdown cancels all of its kernels, and
// whichever one the experiment is currently stepping unwinds.
type expScope struct {
	id string

	mu      sync.Mutex
	kernels []*sim.Kernel
	cause   error // the first cancellation cause; nil while live
	ended   bool  // set by the disarm func; a later cancel is ignored
}

// supervise arms the scope's cancellation sources from env and returns
// the func that disarms them and ends the scope.
func (sc *expScope) supervise(env *Env) (stop func()) {
	var stops []func()
	if env.Deadline > 0 {
		t := time.AfterFunc(env.Deadline, func() {
			sc.cancel(fmt.Errorf("%w: experiment %s over its %v wall budget",
				sim.ErrDeadline, sc.id, env.Deadline), (*runstats.Collector).CountDeadline)
		})
		stops = append(stops, func() { t.Stop() })
	}
	if ctx := env.Ctx; ctx != nil {
		stopCtx := context.AfterFunc(ctx, func() {
			sc.cancel(fmt.Errorf("run interrupted: %w", context.Cause(ctx)), nil)
		})
		stops = append(stops, func() { stopCtx() })
	}
	return func() {
		for _, s := range stops {
			s()
		}
		sc.mu.Lock()
		sc.ended = true
		sc.mu.Unlock()
	}
}

// cancel requests cancellation of every kernel in the scope, once, and
// counts it on the wall-clock collector; count, when set, also records
// the reason. A scope that has ended ignores it.
func (sc *expScope) cancel(cause error, count func(*runstats.Collector)) {
	sc.mu.Lock()
	if sc.cause != nil || sc.ended {
		sc.mu.Unlock()
		return
	}
	sc.cause = cause
	kernels := append([]*sim.Kernel(nil), sc.kernels...)
	sc.mu.Unlock()
	for _, k := range kernels {
		k.CancelRun(cause)
	}
	if c := runstats.Active(); c != nil {
		if count != nil {
			count(c)
		}
		c.CountCancel()
	}
}

// kernelList snapshots the scope's kernels (used by the abort path's
// pool-balance self-check, on the experiment's own goroutine).
func (sc *expScope) kernelList() []*sim.Kernel {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return append([]*sim.Kernel(nil), sc.kernels...)
}

// superviseKernel registers a freshly built kernel with the env's
// experiment scope (no-op outside one) and, when a stall window is
// armed, attaches a watch to the kernel's probe chain. Called from
// NewWorld for every world.
func (e *Env) superviseKernel(k *sim.Kernel) {
	if e == nil || e.scope == nil {
		return
	}
	sc := e.scope
	if e.Stall > 0 {
		k.AttachProbe(&kernelWatch{sc: sc, window: e.Stall})
	}
	sc.mu.Lock()
	sc.kernels = append(sc.kernels, k)
	cause := sc.cause
	sc.mu.Unlock()
	if cause != nil {
		// A kernel born into an already-cancelled scope (deadline hit
		// during a later world build) aborts on its first step.
		k.CancelRun(cause)
	}
}

// kernelWatch is the stall watchdog of one kernel. Its fields are
// written only by its own probe, on the kernel's goroutine.
type kernelWatch struct {
	sc     *expScope
	window time.Duration

	sampled      bool
	vtime        time.Time // vtime at the last advance
	advanceWall  time.Time // wall clock at that advance
	advanceSteps uint64    // step count at that advance
}

// KernelSample implements sim.Probe. It cancels the scope on a vtime
// stall: the kernel has executed events since its virtual clock last
// advanced, and that advance is more than the window ago. A kernel that
// is simply idle (no steps — e.g. the experiment is doing CPU work
// between runs) delivers no samples, so it is never flagged; a handler
// that blocks forever inside one event cannot be unwound at a step
// boundary at all and is left to the deadline/shutdown path to report.
func (w *kernelWatch) KernelSample(s sim.Sample) {
	now := time.Now()
	if !w.sampled || s.VNow.After(w.vtime) {
		w.sampled = true
		w.vtime, w.advanceWall, w.advanceSteps = s.VNow, now, s.Steps
		return
	}
	if s.Steps > w.advanceSteps && now.Sub(w.advanceWall) > w.window {
		w.sc.cancel(fmt.Errorf("%w: experiment %s executed events for %v of wall clock without advancing vtime",
			sim.ErrStalled, w.sc.id, w.window), (*runstats.Collector).CountStall)
	}
}
