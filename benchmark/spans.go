package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call the benchmark made into the program. Spans are
// recorded by the benchmark's own code around public calls, never inside
// the program, so tracing changes no program bytes.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 for a rep's top-level spans
	Name     string  `json:"name"`   // "<layer>.<call>", e.g. "sim.run_until"
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
	StartS   float64 `json:"start_s"` // since the tracer started
	EndS     float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.EndS - s.StartS }

// tracer keeps the spans of a traced run in memory. Calls are strictly
// nested on one goroutine, so an open-span stack gives each span its
// parent. A nil tracer records nothing.
type tracer struct {
	t0       time.Time
	workload string
	rep      int
	spans    []span
	open     []int // indexes into spans
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		ID: idx + 1, Parent: parent, Name: name, Workload: t.workload, Rep: t.rep,
		StartS: time.Since(t.t0).Seconds(),
	})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].EndS = time.Since(t.t0).Seconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns, for one rep, the self time of every span below the
// named root span, keyed by span name: a span's duration minus the time
// its children cover. The root's own self time is the part of it no
// call covers. It also returns the root's duration.
func (t *tracer) selfTimes(rep int, root string) (self map[string]float64, total float64) {
	self = make(map[string]float64)
	byID := make(map[int]span)
	rootID := 0
	for _, s := range t.spans {
		if s.Rep != rep {
			continue
		}
		byID[s.ID] = s
		if s.Name == root && s.Parent == 0 {
			rootID, total = s.ID, s.dur()
		}
	}
	if rootID == 0 {
		return self, 0
	}
	under := func(s span) bool {
		for p := s.Parent; p != 0; p = byID[p].Parent {
			if p == rootID {
				return true
			}
		}
		return s.ID == rootID
	}
	for _, s := range byID {
		if !under(s) {
			continue
		}
		self[s.Name] += s.dur()
		if s.Parent != 0 {
			self[byID[s.Parent].Name] -= s.dur()
		}
	}
	return self, total
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shareMetric names the per-layer metric that carries a span's share of
// the traced run: "sim.run_until" -> "sim.run_until_share", and one
// experiment of the catalog "core.exp.C5" -> "core.exp_share.C5".
func shareMetric(spanName string) string {
	if id, ok := strings.CutPrefix(spanName, "core.exp."); ok {
		return "core.exp_share." + id
	}
	if spanName == rootRun {
		return "bench.run_gap_share"
	}
	return spanName + "_share"
}

// rootRun and rootSetup are the top-level spans of every rep.
const (
	rootSetup = "bench.setup"
	rootRun   = "bench.run"
)
