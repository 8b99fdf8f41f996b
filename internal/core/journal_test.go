package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/users"
)

// TestJournalCrashResumeByteIdentical is the S3 acceptance test: a
// journaled sweep killed mid-run — including a torn final journal line,
// the signature of a SIGKILL between write and fsync — must, after
// -resume, yield exactly the bytes of an uninterrupted run, at every
// worker width.
func TestJournalCrashResumeByteIdentical(t *testing.T) {
	ids := []string{"F3", "C1", "C8"}
	clean := RunExperiments(ids, 1, 1)
	want := make([][]byte, len(clean))
	for i, rep := range clean {
		want[i] = payloadBytes(t, rep)
	}

	for _, workers := range []int{1, 4, 8} {
		path := filepath.Join(t.TempDir(), "run.journal")

		// Phase 1: the "crashed" run — only the first experiment lands in
		// the journal before the process dies.
		j1, err := OpenJournal(path, false, 1, nil)
		if err != nil {
			t.Fatalf("workers=%d: open: %v", workers, err)
		}
		RunExperimentsOpts(ids[:1], 1, RunOptions{Workers: 1, Journal: j1})
		if err := j1.Close(); err != nil {
			t.Fatalf("workers=%d: close: %v", workers, err)
		}
		// The kill tears the record being written: half a JSON object,
		// no trailing newline.
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"kind":"experiment","id":"C1","seed":1,"hash":"dead`); err != nil {
			t.Fatal(err)
		}
		f.Close()
		tornSize := fileSize(t, path)

		// Phase 2: resume. The torn tail is truncated, F3 is served from
		// the journal, C1 and C8 execute fresh.
		j2, err := OpenJournal(path, true, 1, nil)
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if fileSize(t, path) >= tornSize {
			t.Fatalf("workers=%d: torn tail not truncated from the file", workers)
		}
		resumed := RunExperimentsOpts(ids, 1, RunOptions{Workers: workers, Journal: j2})
		if err := j2.Close(); err != nil {
			t.Fatalf("workers=%d: close after resume: %v", workers, err)
		}
		if !resumed[0].FromJournal {
			t.Fatalf("workers=%d: F3 was re-executed instead of served from the journal", workers)
		}
		if resumed[1].FromJournal || resumed[2].FromJournal {
			t.Fatalf("workers=%d: un-journaled experiments were served from the journal", workers)
		}
		for i := range ids {
			if !bytes.Equal(payloadBytes(t, resumed[i]), want[i]) {
				t.Fatalf("workers=%d: resumed %s differs from the uninterrupted run", workers, ids[i])
			}
		}

		// Phase 3: a second resume serves everything — the journal is now
		// complete and self-consistent.
		j3, err := OpenJournal(path, true, 1, nil)
		if err != nil {
			t.Fatalf("workers=%d: second resume: %v", workers, err)
		}
		replayed := RunExperimentsOpts(ids, 1, RunOptions{Workers: workers, Journal: j3})
		if j3.Served() != len(ids) {
			t.Fatalf("workers=%d: second resume served %d of %d", workers, j3.Served(), len(ids))
		}
		j3.Close()
		for i := range ids {
			if !replayed[i].FromJournal {
				t.Fatalf("workers=%d: %s missing from the completed journal", workers, ids[i])
			}
			if !bytes.Equal(payloadBytes(t, replayed[i]), want[i]) {
				t.Fatalf("workers=%d: journal-replayed %s differs from the uninterrupted run", workers, ids[i])
			}
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestJournalRequiresResumeFlag: running a fresh sweep onto an existing
// journal must be refused — it would silently skip its experiments.
func TestJournalRequiresResumeFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path, false, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenJournal(path, false, 1, nil); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("reopening without resume = %v, want a -resume refusal", err)
	}
}

// TestJournalConfigMismatchRefused: a journal is bound to its
// (seed, faults, activity) configuration; resuming under any other is
// an error, not silently different bytes.
func TestJournalConfigMismatchRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path, false, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenJournal(path, true, 2, nil); err == nil || !strings.Contains(err.Error(), "identical configuration") {
		t.Fatalf("seed-mismatched resume = %v, want a configuration refusal", err)
	}
	populated := &Env{Activity: users.MixEnterprise}
	if _, err := OpenJournal(path, true, 1, populated); err == nil || !strings.Contains(err.Error(), "identical configuration") {
		t.Fatalf("mix-mismatched resume = %v, want a configuration refusal", err)
	}
}

// TestJournalSilentMixEitherSpelling: `-activity none` and no -activity
// run the same silent fleet, so a journal written under one spelling
// resumes under the other — in both directions, and from a header an
// earlier build spelled "none". A header naming an unknown mix is
// refused with an error.
func TestJournalSilentMixEitherSpelling(t *testing.T) {
	const (
		header     = `{"kind":"header","version":1,"seed":1,"faults":"takedown","activity":""}` + "\n"
		noneHeader = `{"kind":"header","version":1,"seed":1,"faults":"takedown","activity":"none"}` + "\n"
	)
	none := &Env{Activity: users.MixNone}
	for _, c := range []struct {
		name          string
		write, resume *Env
	}{
		{"none then unset", none, nil},
		{"unset then none", nil, none},
	} {
		path := filepath.Join(t.TempDir(), "run.journal")
		j, err := OpenJournal(path, false, 1, c.write)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		j.Close()
		if data, _ := os.ReadFile(path); string(data) != header {
			t.Fatalf("%s: header = %q, want the canonical %q", c.name, data, header)
		}
		j, err = OpenJournal(path, true, 1, c.resume)
		if err != nil {
			t.Fatalf("%s: resume refused: %v", c.name, err)
		}
		j.Close()
	}

	for _, resume := range []*Env{nil, none} {
		path := filepath.Join(t.TempDir(), "run.journal")
		if err := os.WriteFile(path, []byte(noneHeader), 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, true, 1, resume)
		if err != nil {
			t.Fatalf("resume of a %q header under %+v refused: %v", "none", resume, err)
		}
		j.Close()
	}

	path := filepath.Join(t.TempDir(), "run.journal")
	bogus := strings.Replace(noneHeader, `"none"`, `"bogus"`, 1)
	if err := os.WriteFile(path, []byte(bogus), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, true, 1, nil); err == nil || !strings.Contains(err.Error(), "unknown activity mix") {
		t.Fatalf("resume of an unknown-mix header = %v, want a refusal", err)
	}
}

// TestJournalCorruptionRefused: damage anywhere but the final line
// cannot be crash fallout (records are fsync'd in order), so it must
// refuse to resume rather than replay a half-trusted file.
func TestJournalCorruptionRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path, false, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	RunExperimentsOpts([]string{"F3", "C8"}, 1, RunOptions{Workers: 1, Journal: j})
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	if len(lines) < 4 { // header, F3, C8, trailing ""
		t.Fatalf("journal has %d lines, want at least 4", len(lines))
	}
	// Flip the pass bit inside the F3 record (line 2 of 3 — not the
	// final record, so this cannot be mistaken for a torn tail). The
	// line stays valid JSON; only the content hash can catch it.
	corrupt := bytes.Replace(lines[1], []byte(`"pass":true`), []byte(`"pass":false`), 1)
	if bytes.Equal(corrupt, lines[1]) {
		t.Fatal("test setup: F3 record has no pass bit to flip")
	}
	lines[1] = corrupt
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, true, 1, nil); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt-middle resume = %v, want a corruption refusal", err)
	}
}

// TestJournalSkipsIncompleteOutcomes: partial, skipped and
// determinism-violating reports never enter the journal — a resume must
// re-run them.
func TestJournalSkipsIncompleteOutcomes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path, false, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Record(RunReport{ID: "F1", Seed: 1, Partial: true, Err: os.ErrDeadlineExceeded})
	j.Record(RunReport{ID: "F2", Seed: 1, Skipped: true, Err: os.ErrDeadlineExceeded})
	j.Record(RunReport{ID: "F4", Seed: 1, Violation: true, Result: &Result{ID: "F4"}})
	if j.Recorded() != 0 {
		t.Fatalf("journal recorded %d incomplete outcomes, want 0", j.Recorded())
	}
	j.Close()

	j2, err := OpenJournal(path, true, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	for _, id := range []string{"F1", "F2", "F4"} {
		if _, ok := j2.Lookup(id, 1); ok {
			t.Fatalf("incomplete outcome %s was journaled", id)
		}
	}
}

// TestJournalReplaysDeterministicFailures: a failed (but complete)
// experiment is journaled with its error text and served on resume,
// hash-verified like any success.
func TestJournalReplaysDeterministicFailures(t *testing.T) {
	registerTempExperiment(t, "ZZ-det-fail", func(*Env, uint64) (*Result, error) {
		return nil, os.ErrPermission
	})
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path, false, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := RunExperimentsOpts([]string{"ZZ-det-fail"}, 1, RunOptions{Workers: 1, Journal: j})
	j.Close()
	if first[0].Err == nil {
		t.Fatal("expected a failure")
	}

	j2, err := OpenJournal(path, true, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rep, ok := j2.Lookup("ZZ-det-fail", 1)
	if !ok || !rep.FromJournal || rep.Err == nil || rep.Err.Error() != first[0].Err.Error() {
		t.Fatalf("journaled failure replay = ok=%v rep=%+v", ok, rep)
	}
}

// freshF3Journal returns the bytes of a journal holding one completed F3
// run at seed 1: the header line and the F3 record.
func freshF3Journal(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "run.journal")
	j, err := OpenJournal(path, false, 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	RunExperimentsOpts([]string{"F3"}, 1, RunOptions{Workers: 1, Journal: j})
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// cutHistogram rewrites the F3 record of a fresh journal so that the
// first histogram of its snapshot keeps one count, and re-hashes the
// payload: the record passes its hash check, so only decoding can catch
// the broken layout.
func cutHistogram(tb testing.TB, journal []byte) []byte {
	tb.Helper()
	lines := bytes.Split(journal, []byte("\n"))
	var rec journalRecord
	if err := json.Unmarshal(lines[1], &rec); err != nil {
		tb.Fatal(err)
	}
	var p resultPayload
	if err := json.Unmarshal(rec.Payload, &p); err != nil {
		tb.Fatal(err)
	}
	names := make([]string, 0, len(p.Obs.Histograms))
	for name := range p.Obs.Histograms {
		names = append(names, name)
	}
	if len(names) == 0 {
		tb.Fatal("test setup: F3 snapshot has no histogram")
	}
	slices.Sort(names)
	h := p.Obs.Histograms[names[0]]
	h.Counts = h.Counts[:1]
	p.Obs.Histograms[names[0]] = h
	payload, err := json.Marshal(p)
	if err != nil {
		tb.Fatal(err)
	}
	rec.Payload, rec.Hash = payload, hashJournalBytes(payload)
	if lines[1], err = json.Marshal(rec); err != nil {
		tb.Fatal(err)
	}
	return bytes.Join(lines, []byte("\n"))
}

// TestJournalMalformedHistogramRefused: a journaled snapshot whose
// histogram has fewer counts than its bounds need would panic when the
// run merges it into the -metrics snapshot. Its hash verifies, so it is
// not crash damage: resuming from it is refused with an error that
// names the experiment.
func TestJournalMalformedHistogramRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	if err := os.WriteFile(path, cutHistogram(t, freshF3Journal(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, true, 1, nil)
	if err == nil {
		j.Close()
		t.Fatal("resume from a journal with a cut histogram succeeded")
	}
	if !strings.Contains(err.Error(), "experiment F3") || !strings.Contains(err.Error(), "histogram") {
		t.Fatalf("resume error = %v, want one naming experiment F3 and the histogram", err)
	}
}

// FuzzOpenJournal holds the resume path to the contract for readers of
// external bytes: any journal either fails to open with an error, or
// opens into a Journal whose every replayed snapshot merges into an
// empty snapshot and into itself without an error, and which closes
// cleanly.
func FuzzOpenJournal(f *testing.F) {
	fresh := freshF3Journal(f)
	f.Add(fresh)
	f.Add(append(slices.Clip(fresh), `{"kind":"experiment","id":"C1","seed":1,"hash":"dead`...))
	flipped := bytes.Clone(fresh)
	flipped[len(flipped)/2] ^= 0x04
	f.Add(flipped)
	f.Add(cutHistogram(f, fresh))
	// One file serves every input: a worker runs its inputs one at a time.
	path := filepath.Join(f.TempDir(), "run.journal")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, true, 1, nil)
		if err != nil {
			return
		}
		for _, rep := range j.replayed {
			if rep.Result == nil {
				continue
			}
			var empty obs.Snapshot
			self := rep.Result.Obs
			if err := errors.Join(empty.Merge(rep.Result.Obs), self.Merge(rep.Result.Obs)); err != nil {
				t.Fatalf("a replayed snapshot does not merge: %v", err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
}
