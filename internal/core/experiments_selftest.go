package core

import (
	"errors"
	"time"
)

// RunX1Spin is the supervision self-test X1: an experiment that deliberately
// schedules a zero-delay self-perpetuating event loop, freezing the
// virtual clock forever while the step counter climbs — the exact
// pathology the vtime-stall watchdog exists to reap. Its registry row
// is hidden: `cyberlab -run X1` reaches it, but it is absent from
// ExperimentIDs, because -all and -report must never pick up an
// experiment whose purpose is to hang.
//
// It refuses to run unsupervised — without an armed stall window
// or deadline nothing would ever reap the loop. Under supervision it
// never returns normally: the watchdog cancels the kernel and the run
// unwinds into a partial report carrying the stall diagnostic.
func RunX1Spin(env *Env, seed uint64) (*Result, error) {
	if !env.supervised() {
		return nil, errors.New("X1 spins forever at a frozen vtime by design; arm the supervisor (-stall or -deadline) so the watchdog can reap it")
	}
	w, err := NewWorld(WorldConfig{Env: env, Seed: seed, MuteTrace: true})
	if err != nil {
		return nil, err
	}
	var spin func()
	spin = func() { w.K.Schedule(0, "selftest:spin", spin) }
	w.K.Schedule(0, "selftest:spin", spin)
	if err := w.K.RunFor(time.Hour); err != nil {
		return nil, err
	}
	// Unreachable under a working supervisor; reaching it means the
	// watchdog never fired, which is itself the test failure.
	r := &Result{
		ID:    "X1",
		Title: "Supervision self-test: vtime-frozen spin loop",
		Paper: "n/a (synthetic watchdog self-test)",
	}
	r.summaryf("spin loop survived %d steps without being reaped — the supervisor is not watching", w.K.Steps())
	r.CaptureObs(w.K)
	return r, nil
}
