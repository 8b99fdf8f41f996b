package core

import (
	"context"
	"time"

	"repro/internal/faults"
	"repro/internal/users"
)

// Env is one run's environment: everything besides (experiment, seed)
// that a run depends on. It is passed explicitly — to every Runner, and
// through WorldConfig and AramcoFleetOptions to every world — so two
// runs under different environments can share a process. The zero Env
// (and a nil *Env) is the default run: the takedown fault profile, a
// silent fleet, partition width 1, no watchdog or deadline, and no
// cancellation.
type Env struct {
	// Faults is the adversity schedule the R-series runs under; the zero
	// value selects faults.DefaultProfile.
	Faults faults.Profile
	// Activity is the benign user-activity mix for fleets whose options
	// leave Activity unset; "" and users.MixNone are both silent.
	// Experiments that need a populated world (D4/D5) pass an explicit
	// mix instead, so their results do not depend on it.
	Activity users.Mix
	// Partitions sizes the worker pool advancing a partitioned world's
	// shards (<= 1 is sequential). It never changes simulation bytes, so
	// it is not part of Key: a run may be journaled at one width and
	// resumed at another, like -parallel.
	Partitions int
	// Stall is the vtime-stall watchdog window: an experiment kernel that
	// keeps executing events while its virtual clock stays frozen for
	// longer than this wall-clock window is aborted. 0 disarms.
	Stall time.Duration
	// Deadline is the per-experiment wall-clock budget, measured from the
	// experiment's start. 0 disarms.
	Deadline time.Duration
	// Ctx is the graceful shutdown: once it is cancelled, experiments not
	// yet started are skipped and in-flight ones stop at their next step
	// boundary with context.Cause as the reason. nil is never cancelled.
	Ctx context.Context

	// scope is the experiment the env was handed to (set by runOne on its
	// own copy); every kernel a world builds under it registers there.
	scope *expScope
}

// EnvKey is the determinism tuple of an Env: the part that shapes
// simulation bytes. Journal headers and checkpoints record it: a resume
// under a different tuple is refused rather than silently producing
// different bytes, and a fork replays under the recorded tuple.
type EnvKey struct {
	Faults   string `json:"faults"`
	Activity string `json:"activity"`
}

// Key returns e's determinism tuple in canonical spelling: the fault
// profile's name, and "" for a silent activity mix.
func (e *Env) Key() EnvKey {
	return EnvKey{Faults: e.profile().Name, Activity: string(e.fleetMix(""))}
}

// ParseKey resolves k's names into e's fault profile and activity mix.
// An empty fault name selects the default profile, and "" and "none"
// both name a silent mix. An unknown name is an error and leaves e
// unchanged.
func (e *Env) ParseKey(k EnvKey) error {
	p, err := faults.Lookup(k.Faults)
	if err != nil {
		return err
	}
	var m users.Mix
	if k.Activity != "" {
		if m, err = users.ParseMix(k.Activity); err != nil {
			return err
		}
	}
	e.Faults, e.Activity = p, m
	return nil
}

// profile resolves the fault profile, defaulting the zero value.
func (e *Env) profile() faults.Profile {
	if e == nil || e.Faults.Name == "" {
		return faults.Profiles[faults.DefaultProfile]
	}
	return e.Faults
}

// fleetMix resolves a scenario's Activity option against the env: an
// explicit option wins (users.MixNone forces silence under a populated
// env); the zero value defers to Env.Activity. Returns "" when no
// population should be attached.
func (e *Env) fleetMix(opt users.Mix) users.Mix {
	if opt == "" && e != nil {
		opt = e.Activity
	}
	if opt == users.MixNone {
		return ""
	}
	return opt
}

// supervised reports whether a watchdog window or deadline is armed.
func (e *Env) supervised() bool {
	return e != nil && (e.Stall > 0 || e.Deadline > 0)
}

// cause returns the shutdown cause once Ctx is cancelled, or nil.
func (e *Env) cause() error {
	if e == nil || e.Ctx == nil {
		return nil
	}
	return context.Cause(e.Ctx)
}
