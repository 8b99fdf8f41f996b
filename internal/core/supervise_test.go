package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// payloadBytes canonically serialises a report's result, so two runs can
// be compared byte-for-byte (the same encoding the journal persists).
func payloadBytes(t *testing.T, rep RunReport) []byte {
	t.Helper()
	if rep.Err != nil {
		t.Fatalf("%s: %v", rep.ID, rep.Err)
	}
	b, err := encodeResultPayload(rep.Result)
	if err != nil {
		t.Fatalf("%s: encode: %v", rep.ID, err)
	}
	return b
}

// TestWatchdogReapsX1Spin is the acceptance gate for the vtime-stall
// watchdog: the synthetic spin experiment freezes the virtual clock
// forever, and the supervisor must reap it with a stall diagnostic and
// a balanced event pool.
func TestWatchdogReapsX1Spin(t *testing.T) {
	rep := runOne(&Env{Stall: 60 * time.Millisecond}, "X1", 1)
	if !rep.Partial {
		t.Fatalf("X1 was not reaped: err=%v", rep.Err)
	}
	if !errors.Is(rep.Err, sim.ErrStalled) {
		t.Fatalf("X1 abort cause = %v, want ErrStalled", rep.Err)
	}
	if !strings.Contains(rep.Err.Error(), "vtime") {
		t.Fatalf("abort error carries no diagnostic: %v", rep.Err)
	}
	if strings.Contains(rep.Err.Error(), "pool leaked") {
		t.Fatalf("abort leaked pooled events: %v", rep.Err)
	}
}

// TestX1RefusesUnsupervised: without an armed supervisor the spin
// self-test must refuse to start rather than hang the process.
func TestX1RefusesUnsupervised(t *testing.T) {
	rep := runOne(nil, "X1", 1)
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "arm the supervisor") {
		t.Fatalf("unsupervised X1 = %v, want an arm-the-supervisor refusal", rep.Err)
	}
	if rep.Partial {
		t.Fatal("refusal must not be a partial report")
	}
}

// TestWatchdogDoesNotDisturbSiblings is the second acceptance gate: a
// reaped experiment must leave sibling experiments' output bytes
// untouched, even when they share a worker pool with the spinner.
func TestWatchdogDoesNotDisturbSiblings(t *testing.T) {
	ids := []string{"F3", "C1"}
	baseline := RunExperiments(ids, 1, 1)
	want := [][]byte{payloadBytes(t, baseline[0]), payloadBytes(t, baseline[1])}

	reports := RunExperimentsOpts([]string{"F3", "X1", "C1"}, 1,
		RunOptions{Env: &Env{Stall: 80 * time.Millisecond}, Workers: 2})
	if !reports[1].Partial || !errors.Is(reports[1].Err, sim.ErrStalled) {
		t.Fatalf("X1 not reaped in the pool: %+v", reports[1].Err)
	}
	for i, ri := range []int{0, 2} {
		got := payloadBytes(t, reports[ri])
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("sibling %s bytes changed when X1 was reaped next to it", reports[ri].ID)
		}
	}
}

// registerTempExperiment installs a runner under a hidden test-only ID
// for the rest of the test.
func registerTempExperiment(t *testing.T, id string, r Runner) {
	t.Helper()
	saved := experiments
	experiments = append(slices.Clip(saved), experiment{id: id, run: r, hidden: true})
	t.Cleanup(func() { experiments = saved })
}

// TestDeadlineAbortsLongExperiment: an experiment whose vtime advances
// happily (so the stall watchdog stays quiet) but whose wall clock
// exceeds the per-experiment deadline is aborted with ErrDeadline.
func TestDeadlineAbortsLongExperiment(t *testing.T) {
	registerTempExperiment(t, "ZZ-wall", func(env *Env, seed uint64) (*Result, error) {
		w, err := NewWorld(WorldConfig{Env: env, Seed: seed, MuteTrace: true})
		if err != nil {
			return nil, err
		}
		for i := 0; i < 20_000; i++ {
			w.K.Schedule(time.Duration(i+1)*time.Second, "slow", func() {
				time.Sleep(500 * time.Microsecond)
			})
		}
		w.K.RunFor(30_000 * time.Second)
		return nil, errors.New("ZZ-wall ran to completion under a deadline that should have reaped it")
	})
	rep := runOne(&Env{Deadline: 60 * time.Millisecond}, "ZZ-wall", 1)
	if !rep.Partial || !errors.Is(rep.Err, sim.ErrDeadline) {
		t.Fatalf("deadline report = partial=%v err=%v, want partial ErrDeadline", rep.Partial, rep.Err)
	}
	if strings.Contains(rep.Err.Error(), "pool leaked") {
		t.Fatalf("deadline abort leaked pooled events: %v", rep.Err)
	}
}

// TestDeadlineReachesOffGoroutineWorld: a world built on a goroutine
// the experiment spawned joins the experiment's scope all the same —
// the scope rides the Env, not the goroutine — so stepping it past the
// deadline aborts it with a balanced event pool.
func TestDeadlineReachesOffGoroutineWorld(t *testing.T) {
	var k *sim.Kernel
	registerTempExperiment(t, "ZZ-off-goroutine", func(env *Env, seed uint64) (*Result, error) {
		type built struct {
			w   *World
			err error
		}
		ch := make(chan built, 1)
		go func() {
			w, err := NewWorld(WorldConfig{Env: env, Seed: seed, MuteTrace: true})
			ch <- built{w, err}
		}()
		b := <-ch
		if b.err != nil {
			return nil, b.err
		}
		k = b.w.K
		for i := 0; i < 20_000; i++ {
			k.Schedule(time.Duration(i+1)*time.Second, "slow", func() {
				time.Sleep(500 * time.Microsecond)
			})
		}
		k.RunFor(30_000 * time.Second)
		return nil, errors.New("ZZ-off-goroutine ran to completion under a deadline that should have reaped it")
	})
	rep := runOne(&Env{Deadline: 60 * time.Millisecond}, "ZZ-off-goroutine", 1)
	if !rep.Partial || !errors.Is(rep.Err, sim.ErrDeadline) {
		t.Fatalf("report = partial=%v err=%v, want partial ErrDeadline", rep.Partial, rep.Err)
	}
	ps := k.PoolStats()
	if gets, accounted := ps.Hits+ps.Misses, ps.Puts+uint64(k.Pending()); gets != accounted {
		t.Fatalf("pool ledger unbalanced after the abort: %d gets, %d puts + pending", gets, accounted)
	}
}

// TestShutdownCancelsInFlightAndSkipsQueued: a graceful shutdown aborts
// the running experiment at its next step boundary and skips everything
// not yet started.
func TestShutdownCancelsInFlightAndSkipsQueued(t *testing.T) {
	ctx, shutdown := context.WithCancelCause(context.Background())
	defer shutdown(nil)
	started := make(chan struct{})
	var once sync.Once
	registerTempExperiment(t, "ZZ-interrupt", func(env *Env, seed uint64) (*Result, error) {
		w, err := NewWorld(WorldConfig{Env: env, Seed: seed, MuteTrace: true})
		if err != nil {
			return nil, err
		}
		for i := 0; i < 20_000; i++ {
			w.K.Schedule(time.Duration(i+1)*time.Second, "tick", func() {
				once.Do(func() { close(started) })
				time.Sleep(500 * time.Microsecond)
			})
		}
		w.K.RunFor(30_000 * time.Second)
		return nil, errors.New("ZZ-interrupt survived the shutdown")
	})
	go func() {
		<-started
		shutdown(errors.New("test interrupt"))
	}()
	reports := RunExperimentsOpts([]string{"ZZ-interrupt", "F3"}, 1, RunOptions{Env: &Env{Ctx: ctx}, Workers: 1})
	if !reports[0].Partial || !strings.Contains(reports[0].Err.Error(), "test interrupt") {
		t.Fatalf("in-flight report = partial=%v err=%v, want aborted by the interrupt", reports[0].Partial, reports[0].Err)
	}
	if !reports[1].Skipped || !strings.Contains(reports[1].Err.Error(), "test interrupt") {
		t.Fatalf("queued report = skipped=%v err=%v, want skipped", reports[1].Skipped, reports[1].Err)
	}
}

// TestRetryFlagsDeterminismViolation: a retried experiment whose second
// attempt produces different bytes is a determinism violation, never a
// silent recovery.
func TestRetryFlagsDeterminismViolation(t *testing.T) {
	attempt := 0
	registerTempExperiment(t, "ZZ-flaky", func(*Env, uint64) (*Result, error) {
		attempt++
		return nil, fmt.Errorf("flaky failure #%d", attempt)
	})
	rep := runSupervised("ZZ-flaky", 1, RunOptions{MaxRetries: 1})
	if rep.Attempts != 2 || !rep.Violation {
		t.Fatalf("flaky report = attempts=%d violation=%v, want 2 attempts flagged", rep.Attempts, rep.Violation)
	}

	registerTempExperiment(t, "ZZ-stable-fail", func(*Env, uint64) (*Result, error) {
		return nil, errors.New("always the same failure")
	})
	rep = runSupervised("ZZ-stable-fail", 1, RunOptions{MaxRetries: 2})
	if rep.Attempts != 3 || rep.Violation {
		t.Fatalf("stable failure = attempts=%d violation=%v, want 3 attempts unflagged", rep.Attempts, rep.Violation)
	}
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "always the same failure") {
		t.Fatalf("stable failure lost its error: %v", rep.Err)
	}
}
