package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRunJournalResume drives the full CLI path: a journaled run, then a
// -resume run that serves the journaled experiment instead of
// re-executing it, which its manifest counts.
func TestRunJournalResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	if err := run(context.Background(), []string{"-run", "F3", "-journal", path}); err != nil {
		t.Fatalf("journaled run: %v", err)
	}
	manifest := filepath.Join(dir, "m.json")
	if err := run(context.Background(), []string{"-run", "F3,C8", "-journal", path, "-resume", "-manifest", manifest}); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if m := readManifest(t, manifest); m.Supervision.JournalServed != 1 {
		t.Fatalf("resumed run's manifest: journal_served = %d, want 1 (F3)", m.Supervision.JournalServed)
	}
	// Without -resume, reusing the journal must be refused.
	if err := run(context.Background(), []string{"-run", "F3", "-journal", path}); err == nil ||
		!strings.Contains(err.Error(), "-resume") {
		t.Fatalf("journal reuse without -resume = %v, want a refusal", err)
	}
}

// TestJournalConflictingHistogramFailsRun: a journaled F3 whose
// sim.step.vtdelta-seconds histogram lost its last bound and count, and
// whose payload was re-hashed, still opens; the resumed run then meets
// that histogram again in C1's fresh snapshot. The run must fail with
// an error naming it, not panic.
func TestJournalConflictingHistogramFailsRun(t *testing.T) {
	const name = "sim.step.vtdelta-seconds"
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "run.journal")
	must(run(context.Background(), []string{"-run", "F3", "-journal", path}))
	data, err := os.ReadFile(path)
	must(err)
	lines := bytes.Split(data, []byte("\n"))
	var rec, payload map[string]json.RawMessage
	var snap obs.Snapshot
	must(errors.Join(json.Unmarshal(lines[1], &rec), json.Unmarshal(rec["payload"], &payload),
		json.Unmarshal(payload["obs"], &snap)))
	h := snap.Histograms[name]
	if len(h.Bounds) == 0 {
		t.Fatalf("test setup: F3's snapshot has no %s histogram", name)
	}
	h.Bounds, h.Counts = h.Bounds[:len(h.Bounds)-1], h.Counts[:len(h.Counts)-1]
	snap.Histograms[name] = h
	payload["obs"], err = json.Marshal(snap)
	must(err)
	rec["payload"], err = json.Marshal(payload)
	must(err)
	sum := sha256.Sum256(rec["payload"])
	rec["hash"] = json.RawMessage(strconv.Quote(hex.EncodeToString(sum[:])))
	lines[1], err = json.Marshal(rec)
	must(err)
	must(os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644))
	err = run(context.Background(), []string{"-run", "F3,C1", "-journal", path, "-resume"})
	if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "layouts differ") {
		t.Fatalf("resume over a conflicting histogram = %v, want a merge error naming %s", err, name)
	}
}

func TestRunJournalFlagValidation(t *testing.T) {
	if err := run(context.Background(), []string{"-run", "F3", "-resume"}); err == nil ||
		!strings.Contains(err.Error(), "-journal") {
		t.Fatal("-resume without -journal accepted")
	}
	if err := run(context.Background(), []string{"-run", "F3", "-seeds", "1..2", "-journal", "x.journal"}); err == nil {
		t.Fatal("-journal with -seeds accepted")
	}
	if err := run(context.Background(), []string{"-seeds", "1..2", "-report"}); err == nil ||
		!strings.Contains(err.Error(), "-report") {
		t.Fatalf("-report with -seeds accepted (err = %v)", err)
	}
	if err := run(context.Background(), []string{"-run", "F3", "-seeds", "1..2", "-max-retries", "2"}); err == nil ||
		!strings.Contains(err.Error(), "-max-retries") {
		t.Fatalf("-max-retries with -seeds accepted (err = %v)", err)
	}
	if err := run(context.Background(), []string{"-list", "-journal", "x.journal"}); err == nil {
		t.Fatal("-journal without a run accepted")
	}
	if err := run(context.Background(), []string{"-run", "F3", "-max-retries", "-1"}); err == nil {
		t.Fatal("negative -max-retries accepted")
	}
	if err := run(context.Background(), []string{"-run", "F3", "-stall", "-1s"}); err == nil {
		t.Fatal("negative -stall accepted")
	}
}

// TestRunFailureSummaryNamesIDs pins the exit contract: a run with a
// failing experiment exits non-zero with a one-line summary naming the
// failing IDs and why they failed.
func TestRunFailureSummaryNamesIDs(t *testing.T) {
	// X1 is the hidden spin self-test; unsupervised it refuses to start,
	// a deterministic error the summary must surface by ID.
	err := run(context.Background(), []string{"-run", "X1,F3"})
	if err == nil {
		t.Fatal("run with a failing experiment exited zero")
	}
	if !strings.Contains(err.Error(), "X1 (error)") || !strings.Contains(err.Error(), "did not complete") {
		t.Fatalf("failure summary does not name the failing ID: %v", err)
	}
	if strings.Contains(err.Error(), "F3") {
		t.Fatalf("failure summary names a passing experiment: %v", err)
	}

	// Under an armed watchdog X1 spins until reaped; the summary must
	// report it as aborted, and the healthy sibling still passes.
	err = run(context.Background(), []string{"-run", "X1,F3", "-stall", "100ms"})
	if err == nil || !strings.Contains(err.Error(), "X1 (aborted)") {
		t.Fatalf("supervised failure summary = %v, want X1 (aborted)", err)
	}
}

// TestCheckpointForkCLI round-trips a checkpoint through the two
// subcommands: capture to a file, then fork from it.
func TestCheckpointForkCLI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c1.checkpoint")
	if err := run(context.Background(), []string{"checkpoint", "-run", "C1", "-at", "12h", "-o", path}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("checkpoint file missing or empty: %v", err)
	}
	tail := filepath.Join(dir, "tail.jsonl")
	if err := run(context.Background(), []string{"fork", "-from", path, "-trace", tail}); err != nil {
		t.Fatalf("fork: %v", err)
	}
	if _, err := os.Stat(tail); err != nil {
		t.Fatalf("fork tail trace missing: %v", err)
	}
}

func TestCheckpointFlagValidation(t *testing.T) {
	if err := run(context.Background(), []string{"checkpoint", "-run", "C1"}); err == nil {
		t.Fatal("checkpoint without -at accepted")
	}
	if err := run(context.Background(), []string{"checkpoint", "-at", "1h"}); err == nil {
		t.Fatal("checkpoint without -run accepted")
	}
	if err := run(context.Background(), []string{"checkpoint", "-run", "ZZ", "-at", "1h"}); err == nil {
		t.Fatal("checkpoint of unknown experiment accepted")
	}
	if err := run(context.Background(), []string{"fork"}); err == nil {
		t.Fatal("fork without -from accepted")
	}
	if err := run(context.Background(), []string{"fork", "-from", filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Fatal("fork from a missing file accepted")
	}
}

// TestEnvFlagsShareOneBinder: run and checkpoint bind the
// run-environment flags through one binder, so a bad value fails with
// the same flag error in each; fork binds only -partitions.
func TestEnvFlagsShareOneBinder(t *testing.T) {
	for _, c := range []struct {
		flag, value, want string
	}{
		{"-faults", "bogus", `invalid value "bogus" for flag -faults`},
		{"-activity", "bogus", `invalid value "bogus" for flag -activity`},
		{"-partitions", "-1", `invalid value "-1" for flag -partitions`},
	} {
		var first string
		for _, sub := range [][]string{nil, {"checkpoint"}} {
			err := run(context.Background(), append(sub, c.flag, c.value))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%v %s %s = %v, want %q", sub, c.flag, c.value, err, c.want)
			}
			if first == "" {
				first = err.Error()
			} else if err.Error() != first {
				t.Fatalf("%v %s %s = %q, but the run command says %q", sub, c.flag, c.value, err, first)
			}
		}
		if c.flag == "-partitions" {
			if err := run(context.Background(), []string{"fork", c.flag, c.value}); err == nil || err.Error() != first {
				t.Fatalf("fork -partitions -1 = %v, want %q", err, first)
			}
		} else if err := run(context.Background(), []string{"fork", c.flag, "none"}); err == nil ||
			!strings.Contains(err.Error(), "not defined") {
			t.Fatalf("fork %s = %v, want an undefined-flag error", c.flag, err)
		}
	}
}

// TestForkRefusesUnknownEnvKey: a checkpoint file naming a fault
// profile or activity mix this build does not know is an error from
// fork, not a panic.
func TestForkRefusesUnknownEnvKey(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c1.checkpoint")
	if err := run(context.Background(), []string{"checkpoint", "-run", "C1", "-at", "12h", "-o", path}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ from, to, want string }{
		{`"faults": "takedown"`, `"faults": "bogus"`, "unknown profile"},
		{`"activity": ""`, `"activity": "bogus"`, "unknown activity mix"},
	} {
		bad := strings.Replace(string(data), c.from, c.to, 1)
		if bad == string(data) {
			t.Fatalf("test setup: checkpoint has no %s", c.from)
		}
		badPath := filepath.Join(dir, "bad.checkpoint")
		if err := os.WriteFile(badPath, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(context.Background(), []string{"fork", "-from", badPath}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("fork of a checkpoint with %s = %v, want an error naming %q", c.to, err, c.want)
		}
	}
}
