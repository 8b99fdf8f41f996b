package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/obs"
)

// Replay checkpoints (DESIGN.md §13). A deterministic simulation never
// needs to serialise live state — closures, heaps, host maps — to be
// resumable: the (experiment, seed, fault profile, activity mix) tuple
// IS the state, and any point in the run is reachable by re-execution.
// A Checkpoint therefore captures only that tuple, a virtual timestamp,
// and a content hash of the trace prefix up to it. Fork "restores" the
// checkpoint by re-running the experiment, verifying that the replayed
// prefix hashes identically (catching config drift and code-level
// nondeterminism), and then muting the verified prefix out of the
// returned result so the fork's artefacts carry only the tail past the
// checkpoint.

const checkpointVersion = 1

// Checkpoint identifies a replayable point inside one experiment run.
type Checkpoint struct {
	Version    int       `json:"version"`
	Experiment string    `json:"experiment"`
	Seed       uint64    `json:"seed"`
	EnvKey               // the capture's fault profile and activity mix
	VTime      time.Time `json:"vtime"`       // checkpoint boundary (virtual clock)
	PrefixLen  int       `json:"prefix_len"`  // trace events at or before VTime
	PrefixHash string    `json:"prefix_hash"` // sha256 over their JSONL bytes
	TotalLen   int       `json:"total_len"`   // full run's event count, for context
	Summary    string    `json:"summary"`     // full run's one-line outcome
}

// tracePrefixHash hashes the JSONL encoding of every event at or before
// the boundary, in stream order, and returns (count, hash).
func tracePrefixHash(events []obs.Event, boundary time.Time) (int, string) {
	h := sha256.New()
	n := 0
	var buf []byte
	for _, e := range events {
		if e.At.After(boundary) {
			continue
		}
		buf = e.AppendJSONL(buf[:0])
		h.Write(buf)
		n++
	}
	return n, hex.EncodeToString(h.Sum(nil))
}

// CaptureCheckpoint runs the experiment under env to completion and
// freezes the trace prefix up to vtime into a Checkpoint bound to env's
// key.
func CaptureCheckpoint(env *Env, id string, seed uint64, vtime time.Time) (*Checkpoint, error) {
	rep := runOne(env, id, seed)
	if rep.Err != nil {
		return nil, rep.Err
	}
	cp := &Checkpoint{
		Version:    checkpointVersion,
		Experiment: id,
		Seed:       seed,
		EnvKey:     env.Key(),
		VTime:      vtime.UTC(),
		TotalLen:   len(rep.Result.Events),
		Summary:    rep.Result.Summary,
	}
	cp.PrefixLen, cp.PrefixHash = tracePrefixHash(rep.Result.Events, cp.VTime)
	return cp, nil
}

// ForkResult is a restored checkpoint: the re-executed run with the
// verified prefix muted away.
type ForkResult struct {
	Checkpoint *Checkpoint
	// Result is the replayed experiment with Events reduced to the tail
	// strictly after the checkpoint vtime (the prefix was verified by
	// hash and is available from any run of the same configuration).
	Result *Result
	// TailEvents counts the events past the checkpoint.
	TailEvents int
}

// Fork restores a checkpoint by deterministic re-execution under env
// with the checkpoint's own key in place of env's. The replayed trace
// prefix must hash to the checkpoint's value; a mismatch means the code
// drifted since capture — or the run is nondeterministic — and the fork
// is refused.
func Fork(env *Env, cp *Checkpoint) (*ForkResult, error) {
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("checkpoint format v%d, this build speaks v%d", cp.Version, checkpointVersion)
	}
	replay := Env{}
	if env != nil {
		replay = *env
	}
	if err := replay.ParseKey(cp.EnvKey); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	rep := runOne(&replay, cp.Experiment, cp.Seed)
	if rep.Err != nil {
		return nil, fmt.Errorf("fork replay: %w", rep.Err)
	}
	n, hash := tracePrefixHash(rep.Result.Events, cp.VTime)
	if n != cp.PrefixLen || hash != cp.PrefixHash {
		return nil, fmt.Errorf("checkpoint drift at %s: replay produced %d prefix events (hash %.12s…), checkpoint recorded %d (hash %.12s…) — the code or configuration changed since capture",
			cp.VTime.Format(time.RFC3339), n, hash, cp.PrefixLen, cp.PrefixHash)
	}
	tail := rep.Result.Events[:0:0]
	for _, e := range rep.Result.Events {
		if e.At.After(cp.VTime) {
			tail = append(tail, e)
		}
	}
	rep.Result.Events = tail
	return &ForkResult{Checkpoint: cp, Result: rep.Result, TailEvents: len(tail)}, nil
}

// WriteCheckpoint renders cp as indented JSON plus a trailing newline.
func WriteCheckpoint(w io.Writer, cp *Checkpoint) error {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadCheckpoint loads a checkpoint file written by WriteCheckpoint.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return cp, nil
}
