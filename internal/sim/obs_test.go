package sim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestKernelMetricsCounters(t *testing.T) {
	k := NewKernel()
	ev := k.Schedule(time.Minute, "a", func() {})
	k.Schedule(2*time.Minute, "b", func() {})
	k.Cancel(ev)
	k.Cancel(ev) // double-cancel must not double-count
	k.Drain(100)

	s := k.Metrics().Snapshot()
	if s.Counters["sim.event.schedule"] != 2 {
		t.Fatalf("schedule = %g, want 2", s.Counters["sim.event.schedule"])
	}
	if s.Counters["sim.event.cancel"] != 1 {
		t.Fatalf("cancel = %g, want 1", s.Counters["sim.event.cancel"])
	}
	if s.Counters["sim.event.execute"] != 1 {
		t.Fatalf("execute = %g, want 1", s.Counters["sim.event.execute"])
	}
}

func TestTraceEmitTagsAndSeq(t *testing.T) {
	k := NewKernel()
	tr := k.Trace()
	tr.Emit(k.Now(), CatInfect, "WS-01", "stuxnet installed", obs.T("vector", "usb"))
	tr.Add(k.Now(), CatExec, "WS-01", "exec %s", "a.exe")
	recs := tr.Events()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("seqs = %d,%d want 1,2", recs[0].Seq, recs[1].Seq)
	}
	if len(recs[0].Tags) != 1 || recs[0].Tags[0] != obs.T("vector", "usb") {
		t.Fatalf("tags = %v", recs[0].Tags)
	}
	if recs[1].Msg != "exec a.exe" {
		t.Fatalf("message = %q", recs[1].Msg)
	}
}

func TestTraceWriteJSONL(t *testing.T) {
	k := NewKernel()
	k.Trace().Emit(k.Now(), CatC2, "server", "GET_NEWS", obs.Ti("packages", 2))
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, k.Trace().Events()); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	for _, want := range []string{`"cat":"c2"`, `"seq":1`, `"packages":"2"`, `"t":"2010-06-01T00:00:00Z"`} {
		if !strings.Contains(line, want) {
			t.Fatalf("JSONL %q missing %q", line, want)
		}
	}
}

// TestTraceJSONLIdenticalAcrossRuns pins the determinism contract at the
// trace level: two kernels driven identically export identical bytes.
func TestTraceJSONLIdenticalAcrossRuns(t *testing.T) {
	export := func() string {
		k := NewKernel(WithSeed(7))
		stop := k.Every(time.Minute, "tick", func() {
			k.Trace().Emit(k.Now(), CatNetwork, "h", "beat", obs.Ti("r", int64(k.RNG().Intn(100))))
		})
		k.RunFor(10 * time.Minute)
		stop()
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, k.Trace().Events()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := export(), export()
	if a != b {
		t.Fatal("trace JSONL differs across identical runs")
	}
	if len(strings.Split(strings.TrimSpace(a), "\n")) != 10 {
		t.Fatalf("expected 10 lines, got:\n%s", a)
	}
}
