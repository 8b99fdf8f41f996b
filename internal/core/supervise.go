package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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
// sweep goroutine that watches only the scope's own kernels.

// expScope is one in-flight experiment: its identity and every kernel
// its worlds have built so far. The scope is the unit of cancellation —
// a deadline, stall or shutdown cancels all of its kernels, and
// whichever one the experiment is currently stepping unwinds.
type expScope struct {
	id string

	mu      sync.Mutex
	kernels []*sim.Kernel
	watches []*kernelWatch
	cause   error // the first cancellation cause; nil while live
}

// supervise arms the scope's cancellation sources from env and returns
// the func that disarms them (it waits for the stall sweep to exit).
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
	if env.Stall > 0 {
		done, exited := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(exited)
			sc.watchStall(env.Stall, done)
		}()
		stops = append(stops, func() { close(done); <-exited })
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}
}

// watchStall polls the scope's kernels at a quarter of the window,
// clamped to [5ms, 250ms], until done; the first stall cancels the
// scope.
func (sc *expScope) watchStall(window time.Duration, done <-chan struct{}) {
	t := time.NewTicker(min(max(window/4, 5*time.Millisecond), 250*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case now := <-t.C:
			for _, w := range sc.watchList() {
				if w.stalled(now, window) {
					sc.cancel(fmt.Errorf("%w: experiment %s executed events for %v of wall clock without advancing vtime",
						sim.ErrStalled, sc.id, window), (*runstats.Collector).CountStall)
					return
				}
			}
		}
	}
}

// cancel requests cancellation of every kernel in the scope, once, and
// counts it on the wall-clock collector; count, when set, also records
// the reason.
func (sc *expScope) cancel(cause error, count func(*runstats.Collector)) {
	sc.mu.Lock()
	if sc.cause != nil {
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

func (sc *expScope) watchList() []*kernelWatch {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return append([]*kernelWatch(nil), sc.watches...)
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
// armed, attaches its sampling watch to the kernel's probe chain. Called
// from NewWorld for every world.
func (e *Env) superviseKernel(k *sim.Kernel) {
	if e == nil || e.scope == nil {
		return
	}
	sc := e.scope
	var w *kernelWatch
	if e.Stall > 0 {
		w = &kernelWatch{}
		w.reset()
		k.AttachProbe(w, 0)
	}
	sc.mu.Lock()
	sc.kernels = append(sc.kernels, k)
	if w != nil {
		sc.watches = append(sc.watches, w)
	}
	cause := sc.cause
	sc.mu.Unlock()
	if cause != nil {
		// A kernel born into an already-cancelled scope (deadline hit
		// during a later world build) aborts on its first step.
		k.CancelRun(cause)
	}
}

// kernelWatch is the watchdog's view of one kernel, fed by probe
// samples on the kernel goroutine and read by the sweep goroutine.
// All fields are atomics; the probe path must not block.
type kernelWatch struct {
	sampled      atomic.Bool
	vtime        atomic.Int64  // last sampled vtime (ns since epoch)
	steps        atomic.Uint64 // last sampled step count
	advanceWall  atomic.Int64  // wall ns when vtime last advanced
	advanceSteps atomic.Uint64 // step count at that advance
}

func (w *kernelWatch) reset() { w.advanceWall.Store(time.Now().UnixNano()) }

// KernelSample implements sim.Probe.
func (w *kernelWatch) KernelSample(s sim.Sample) {
	vt := s.VNow.UnixNano()
	if !w.sampled.Load() || vt > w.vtime.Load() {
		w.vtime.Store(vt)
		w.advanceWall.Store(time.Now().UnixNano())
		w.advanceSteps.Store(s.Steps)
		w.sampled.Store(true)
	}
	w.steps.Store(s.Steps)
}

// stalled reports a vtime stall: the kernel has executed events since
// its virtual clock last advanced, and that advance is more than the
// window ago. A kernel that is simply idle (no steps — e.g. the
// experiment is doing CPU work between runs) is never flagged, because
// a cancel could then false-positive on healthy experiments; a handler
// that blocks forever inside one event cannot be unwound at a step
// boundary at all and is left to the deadline/shutdown path to report.
func (w *kernelWatch) stalled(now time.Time, window time.Duration) bool {
	if !w.sampled.Load() {
		return false
	}
	if w.steps.Load() <= w.advanceSteps.Load() {
		return false
	}
	return now.UnixNano()-w.advanceWall.Load() > window.Nanoseconds()
}
