package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/users"
)

// checkpointBoundary picks a vtime strictly inside an experiment's
// event stream, so the checkpoint has both a prefix and a tail.
func checkpointBoundary(t *testing.T, id string) time.Time {
	t.Helper()
	rep := runOne(nil, id, 1)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	events := rep.Result.Events
	if len(events) < 4 {
		t.Fatalf("%s retains only %d events; too few to split", id, len(events))
	}
	return events[len(events)/2].At
}

// TestCheckpointForkRoundTrip: capture a checkpoint mid-run, fork from
// it, and get back exactly the tail past the boundary — the verified
// prefix is muted out of the restored result.
func TestCheckpointForkRoundTrip(t *testing.T) {
	at := checkpointBoundary(t, "C1")
	cp, err := CaptureCheckpoint(nil, "C1", 1, at)
	if err != nil {
		t.Fatal(err)
	}
	if cp.PrefixLen == 0 || cp.PrefixLen >= cp.TotalLen {
		t.Fatalf("degenerate checkpoint: prefix %d of %d events", cp.PrefixLen, cp.TotalLen)
	}
	fr, err := Fork(nil, cp)
	if err != nil {
		t.Fatal(err)
	}
	if fr.TailEvents != cp.TotalLen-cp.PrefixLen {
		t.Fatalf("fork tail = %d events, want %d", fr.TailEvents, cp.TotalLen-cp.PrefixLen)
	}
	for _, e := range fr.Result.Events {
		if !e.At.After(cp.VTime) {
			t.Fatalf("fork leaked a prefix event at %v (checkpoint %v)", e.At, cp.VTime)
		}
	}
}

// TestForkRefusesHashDrift: a checkpoint whose recorded prefix hash no
// longer matches the replay means the code or configuration changed —
// the fork must refuse, not silently diverge.
func TestForkRefusesHashDrift(t *testing.T) {
	cp, err := CaptureCheckpoint(nil, "C1", 1, checkpointBoundary(t, "C1"))
	if err != nil {
		t.Fatal(err)
	}
	cp.PrefixHash = strings.Repeat("0", len(cp.PrefixHash))
	if _, err := Fork(nil, cp); err == nil || !strings.Contains(err.Error(), "drift") {
		t.Fatalf("hash-drifted fork = %v, want a drift refusal", err)
	}
}

// TestForkReplaysUnderCheckpointKey: a fork replays under the key its
// checkpoint recorded, not the caller's, so an R-series checkpoint
// captured under the default profile still verifies when forked from a
// chaos env.
func TestForkReplaysUnderCheckpointKey(t *testing.T) {
	cp, err := CaptureCheckpoint(nil, "R2", 1, checkpointBoundary(t, "R2"))
	if err != nil {
		t.Fatal(err)
	}
	var chaos Env
	if err := chaos.ParseKey(EnvKey{Faults: "chaos"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Fork(&chaos, cp); err != nil {
		t.Fatalf("fork from a chaos env: %v", err)
	}
}

// TestCheckpointSilentMixEitherSpelling: a checkpoint captured under
// `-activity none` records the canonical silent spelling "", and one an
// earlier build wrote with "none" still forks.
func TestCheckpointSilentMixEitherSpelling(t *testing.T) {
	cp, err := CaptureCheckpoint(&Env{Activity: users.MixNone}, "C1", 1, checkpointBoundary(t, "C1"))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Activity != "" {
		t.Fatalf("silent checkpoint spells its mix %q, want \"\"", cp.Activity)
	}
	cp.Activity = string(users.MixNone)
	if _, err := Fork(nil, cp); err != nil {
		t.Fatalf("fork of a %q checkpoint: %v", cp.Activity, err)
	}
}

// TestCheckpointFileRoundTrip: checkpoints survive the write/read cycle
// byte-for-byte in their verified fields.
func TestCheckpointFileRoundTrip(t *testing.T) {
	cp, err := CaptureCheckpoint(nil, "C1", 1, checkpointBoundary(t, "C1"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "f3.checkpoint")
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *cp {
		t.Fatalf("checkpoint round trip drifted:\n got %+v\nwant %+v", got, cp)
	}
}
