package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/malware/shamoon"
	"repro/internal/sim"
)

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
	want := payloadBytes(t, RunReport{Result: base})

	for _, w := range []int{2, 4, 8} {
		res, err := reducedPartitionedRunner(&Env{Partitions: w}, 3)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		res.attachProvenance()
		if got := payloadBytes(t, RunReport{Result: res}); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d produced different bytes than workers=1", w)
		}
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
