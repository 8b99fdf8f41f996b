package sim

import (
	"errors"
	"fmt"
	"time"
)

// Run cancellation (DESIGN.md §13). CancelRun is the only way to halt a
// run early. A supervisor — the stall watchdog, a wall-clock deadline, or
// the signal handler — asks a running kernel to stop with it; the kernel
// honours the request at the next step boundary, between events, so no
// handler is ever torn mid-flight. The abort releases every still-queued
// pooled event (get/put balance holds even for aborted runs) and unwinds
// as a *Cancelled panic that the experiment runner converts into a
// partial RunReport. Cancellation is the only wall-clock-triggered
// control flow allowed to touch a kernel, and it may only ever abort: it
// writes nothing to the trace or the metrics registry, so completed
// experiments' bytes are unaffected by a sibling's abort.

// ErrCancelled is the generic cancellation cause used when CancelRun is
// given a nil cause.
var ErrCancelled = errors.New("sim: run cancelled")

// ErrStalled is the cancellation cause the vtime-stall watchdog uses: the
// kernel kept executing events but its virtual clock stopped advancing.
var ErrStalled = errors.New("sim: vtime stalled")

// ErrDeadline is the cancellation cause for per-experiment wall-clock
// deadlines.
var ErrDeadline = errors.New("sim: wall-clock deadline exceeded")

// Cancelled is the panic value an aborted run unwinds with. It carries
// the supervisor's cause and a Diagnostic snapshot taken on the kernel
// goroutine at the abort boundary.
type Cancelled struct {
	Cause error
	Diag  Diagnostic
}

// Error makes *Cancelled usable as an error after recovery.
func (c *Cancelled) Error() string {
	return fmt.Sprintf("%v (%s)", c.Cause, c.Diag)
}

// Unwrap exposes the supervisor's cause to errors.Is.
func (c *Cancelled) Unwrap() error { return c.Cause }

// AsCancelled reports whether a recovered panic value is a run
// cancellation.
func AsCancelled(r any) (*Cancelled, bool) {
	c, ok := r.(*Cancelled)
	return c, ok
}

// Diagnostic is the state dump attached to an aborted run: enough to see
// what the kernel was doing when the supervisor reaped it.
type Diagnostic struct {
	VNow        time.Time // virtual clock at the abort boundary
	Steps       uint64    // events executed before the abort
	Pending     int       // queue depth at the abort (before release)
	LastHandler string    // event-name class of the last executed event
	NextEvent   string    // name of the event that would have run next
	Spans       uint64    // causal spans opened so far
}

// String renders the dump as one line (folded into error text and the
// report's failure cell).
func (d Diagnostic) String() string {
	next := d.NextEvent
	if next == "" {
		next = "-"
	}
	last := d.LastHandler
	if last == "" {
		last = "-"
	}
	return fmt.Sprintf("vtime %s, %d steps, queue %d, last handler %q, next event %q, %d open spans",
		d.VNow.UTC().Format(time.RFC3339), d.Steps, d.Pending, last, next, d.Spans)
}

// cancelState carries a pending cancellation request across goroutines.
type cancelState struct{ cause error }

// CancelRun asks the kernel to abort its current (or next) run at the
// next step boundary with the given cause (nil selects ErrCancelled).
// Unlike every other Kernel method it is safe to call from any
// goroutine: supervisors run on the wall-clock plane. The first cause
// wins; later requests before the abort are ignored. The abort itself —
// releasing queued events and panicking with *Cancelled — happens on the
// kernel's own goroutine, deterministically between two events.
func (k *Kernel) CancelRun(cause error) {
	if cause == nil {
		cause = ErrCancelled
	}
	k.cancelReq.CompareAndSwap(nil, &cancelState{cause: cause})
}

// Diagnostic snapshots the kernel's step-boundary state. Must only be
// called from the kernel's goroutine (it reads unsynchronised state).
func (k *Kernel) Diagnostic() Diagnostic {
	d := Diagnostic{
		VNow:        k.now,
		Steps:       k.steps,
		Pending:     len(k.queue),
		LastHandler: k.lastHandler,
		Spans:       k.spans,
	}
	if len(k.queue) > 0 {
		d.NextEvent = k.queue[0].ev.name
	}
	return d
}

// abortIfCancelled honours a pending CancelRun at a step boundary:
// consume the request, snapshot the diagnostic, return every queued
// event to the pool, and unwind. Only the kernel's own goroutine clears
// the request. Nothing is written to the trace or metrics — the abort
// path must not observe-and-mutate the deterministic plane (DESIGN.md
// §13).
func (k *Kernel) abortIfCancelled() {
	c := k.cancelReq.Load()
	if c == nil {
		return
	}
	k.cancelReq.Store(nil)
	diag := k.Diagnostic()
	k.releasePending()
	panic(&Cancelled{Cause: c.cause, Diag: diag})
}

// releasePending drains the queue back into the free list without
// executing or tracing anything, keeping pool get/put balance intact
// across an abort.
func (k *Kernel) releasePending() {
	for len(k.queue) > 0 {
		n := len(k.queue) - 1
		ev := k.queue[n].ev
		k.queue[n] = slot{}
		k.queue = k.queue[:n]
		ev.index = -1
		k.release(ev)
	}
}
