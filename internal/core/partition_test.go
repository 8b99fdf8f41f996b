package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/malware/shamoon"
	"repro/internal/sim"
)

// resultBytes canonically serialises a result for byte comparison.
func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := encodeResultPayload(res)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

// reducedPartitionedRunner is the test-tier partitioned C7: 240 hosts
// across the six-site layout with traces retained, so byte comparisons
// cover the merged trace stream, not just metrics. The partition width
// comes from the Env.
func reducedPartitionedRunner(env *Env, seed uint64) (*Result, error) {
	opts := C7Options(240)
	opts.MuteTrace = false
	opts.Env = env
	return RunAramcoFleet(seed, opts)
}

// TestPartitionWorkerByteIdentity is the §14 acceptance gate: the
// partitioned world's full result payload — report fields, merged obs
// snapshot, merged trace JSONL — is byte-identical at every partition
// worker width.
func TestPartitionWorkerByteIdentity(t *testing.T) {
	base, err := reducedPartitionedRunner(&Env{Partitions: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Pass {
		t.Fatalf("reduced partitioned C7 did not reproduce:\n%s", base.Render())
	}
	if len(base.Events) == 0 {
		t.Fatal("unmuted partitioned run retained no trace events; byte identity would be vacuous")
	}
	base.attachProvenance()
	want := resultBytes(t, base)

	for _, w := range []int{2, 4, 8} {
		res, err := reducedPartitionedRunner(&Env{Partitions: w}, 3)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		res.attachProvenance()
		if got := resultBytes(t, res); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d produced different bytes than workers=1", w)
		}
	}
}

// TestPartitionWorkerRegistrySliceInvariant pins that the partition
// width is inert for the rest of the registry: a representative slice
// (figure, resilience, detection) produces identical bytes at any
// width.
func TestPartitionWorkerRegistrySliceInvariant(t *testing.T) {
	ids := []string{"F1", "R2", "D4"}
	want := make(map[string][]byte)
	for _, id := range ids {
		want[id] = payloadBytes(t, runOne(&Env{Partitions: 1}, id, 1))
	}
	for _, id := range ids {
		if got := payloadBytes(t, runOne(&Env{Partitions: 8}, id, 1)); !bytes.Equal(got, want[id]) {
			t.Fatalf("%s bytes changed under -partitions 8", id)
		}
	}
}

// TestPartitionComposesWithParallel: a partitioned experiment rides the
// parallel experiment runner next to ordinary experiments, and the
// (partition width × pool width) grid leaves every report's bytes
// unchanged.
func TestPartitionComposesWithParallel(t *testing.T) {
	registerTempExperiment(t, "ZZ-fleet", reducedPartitionedRunner)
	ids := []string{"F3", "ZZ-fleet", "C1"}

	baseline := RunExperimentsOpts(ids, 1, RunOptions{Env: &Env{Partitions: 1}, Workers: 1})
	want := make([][]byte, len(baseline))
	for i, rep := range baseline {
		want[i] = payloadBytes(t, rep)
	}

	reports := RunExperimentsOpts(ids, 1, RunOptions{Env: &Env{Partitions: 4}, Workers: 3})
	for i, rep := range reports {
		if got := payloadBytes(t, rep); !bytes.Equal(got, want[i]) {
			t.Fatalf("%s bytes changed under -partitions 4 -parallel 3", rep.ID)
		}
	}
}

// TestPartitionComposesWithJournalResume: a partitioned experiment
// journaled at one partition width resumes byte-identically at another
// — the width is deliberately outside the journal's determinism tuple,
// like -parallel.
func TestPartitionComposesWithJournalResume(t *testing.T) {
	registerTempExperiment(t, "ZZ-fleet", reducedPartitionedRunner)
	path := filepath.Join(t.TempDir(), "run.journal")

	narrow := &Env{Partitions: 1}
	j1, err := OpenJournal(path, false, 1, narrow)
	if err != nil {
		t.Fatal(err)
	}
	first := RunExperimentsOpts([]string{"ZZ-fleet"}, 1, RunOptions{Env: narrow, Workers: 1, Journal: j1})
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	want := payloadBytes(t, first[0])

	wide := &Env{Partitions: 4}
	j2, err := OpenJournal(path, true, 1, wide)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	resumed := RunExperimentsOpts([]string{"ZZ-fleet"}, 1, RunOptions{Env: wide, Workers: 1, Journal: j2})
	if !resumed[0].FromJournal {
		t.Fatal("resumed run re-executed instead of serving the journal")
	}
	if got := payloadBytes(t, resumed[0]); !bytes.Equal(got, want) {
		t.Fatal("journal-served bytes differ from the recorded run")
	}
}

// TestPartitionComposesWithCheckpointFork: a checkpoint captured from a
// partitioned run forks cleanly — the replay's trace prefix hashes
// identically — at a different partition width than the capture.
func TestPartitionComposesWithCheckpointFork(t *testing.T) {
	registerTempExperiment(t, "ZZ-fleet", reducedPartitionedRunner)

	cp, err := CaptureCheckpoint(&Env{Partitions: 1}, "ZZ-fleet", 1, shamoon.AramcoTrigger)
	if err != nil {
		t.Fatal(err)
	}
	if cp.PrefixLen == 0 || cp.PrefixLen == cp.TotalLen {
		t.Fatalf("checkpoint boundary is degenerate: prefix %d of %d", cp.PrefixLen, cp.TotalLen)
	}

	fork, err := Fork(&Env{Partitions: 4}, cp)
	if err != nil {
		t.Fatalf("fork at -partitions 4 of a width-1 checkpoint: %v", err)
	}
	if fork.TailEvents != cp.TotalLen-cp.PrefixLen {
		t.Fatalf("fork tail = %d events, want %d", fork.TailEvents, cp.TotalLen-cp.PrefixLen)
	}
}

// TestPartitionDeadlineCancelFanOut: the supervision layer's deadline
// abort reaches every shard of a partitioned experiment — all six site
// kernels drain their queues, the pool ledgers balance, and the report
// is a partial with the deadline cause, even while four workers advance
// shards concurrently.
func TestPartitionDeadlineCancelFanOut(t *testing.T) {
	registerTempExperiment(t, "ZZ-stuck-fleet", func(env *Env, seed uint64) (*Result, error) {
		f, err := BuildAramcoFleet(seed, AramcoFleetOptions{
			Workstations: 60, Sites: 6, LeanImages: true, MuteTrace: true, Workers: 4, Env: env,
		})
		if err != nil {
			return nil, err
		}
		// Vtime advances happily (no stall) but every event burns wall
		// clock, so the wall deadline fires mid-window.
		for _, sc := range f.Sites {
			k := sc.World.K
			for i := 0; i < 4000; i++ {
				k.Schedule(time.Duration(i+1)*time.Second, "slow", func() {
					time.Sleep(500 * time.Microsecond)
				})
			}
		}
		if err := f.RunUntil(shamoon.AramcoTrigger.Add(2 * time.Hour)); err != nil {
			return nil, err
		}
		return nil, errors.New("ZZ-stuck-fleet outlived a deadline that should have reaped it")
	})
	rep := runOne(&Env{Deadline: 60 * time.Millisecond}, "ZZ-stuck-fleet", 1)
	if !rep.Partial || !errors.Is(rep.Err, sim.ErrDeadline) {
		t.Fatalf("report = partial=%v err=%v, want partial ErrDeadline", rep.Partial, rep.Err)
	}
	if strings.Contains(rep.Err.Error(), "pool leaked") {
		t.Fatalf("partitioned abort leaked pooled events: %v", rep.Err)
	}
}
