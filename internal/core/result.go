package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/sim"
)

// Metric is one measured quantity of an experiment.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Result is the outcome of one experiment run (one figure or claim from
// the paper).
type Result struct {
	ID      string
	Title   string
	Paper   string // what the paper reports, for side-by-side rendering
	Summary string // one-line measured outcome, rendered into EXPERIMENTS.md
	Metrics []Metric
	Notes   []string
	// Blocks are preformatted multi-line artefacts (tables, matrices)
	// appended to the generated report as fenced code blocks.
	Blocks []string
	Pass   bool

	// Obs is the merged metrics snapshot of every kernel the experiment
	// drove (see CaptureObs).
	Obs obs.Snapshot
	// Events are the retained trace records of those kernels, each tagged
	// exp=<ID>, in capture order.
	Events []obs.Event

	// spanBase offsets span IDs of later-captured kernels so multi-world
	// experiments keep span uniqueness within the result.
	spanBase uint64
}

func (r *Result) metric(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit})
}

func (r *Result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Result) summaryf(format string, args ...any) {
	r.Summary = fmt.Sprintf(format, args...)
}

func (r *Result) block(s string) {
	r.Blocks = append(r.Blocks, strings.TrimRight(s, "\n"))
}

// CaptureObs folds each kernel's telemetry into the result: registry
// snapshots merge into Obs, retained trace records append to Events
// tagged with the experiment ID, whole stream after whole stream in
// kernel order. Multi-world experiments call it once per world, in a
// fixed order.
func (r *Result) CaptureObs(ks ...*sim.Kernel) { r.capture(false, ks) }

// CaptureObsMerged is CaptureObs for partitioned worlds (DESIGN.md
// §14): instead of concatenating whole streams the retained trace
// records interleave into one time-ordered stream — a k-way merge keyed
// (vtime, partition index, record seq). Each kernel's stream is already
// vtime-nondecreasing in record order, so the merge is well-defined,
// and the key is pure simulation state: the merged bytes are invariant
// under the partition worker count.
func (r *Result) CaptureObsMerged(ks ...*sim.Kernel) { r.capture(true, ks) }

// capture is the one body behind CaptureObs and CaptureObsMerged. Each
// kernel's span IDs are shifted past the allocations of every kernel
// captured before it (kernels allocate 1,2,3,… independently), so the
// result's stream keeps span uniqueness across calls. merge is the only
// switch: concatenation drains the lowest-index stream first, merging
// takes the earliest record with ties on the lowest index — the (vtime,
// kernel index, record seq) key.
func (r *Result) capture(merge bool, ks []*sim.Kernel) {
	streams := make([][]obs.Event, len(ks))
	total := 0
	for i, k := range ks {
		// Flush the wall-clock telemetry tail (no-op without a probe);
		// this reads kernel state but writes nothing deterministic.
		k.FlushProbe()
		r.Obs.Merge(k.Metrics().Snapshot())
		events := k.Trace().Events()
		if base := obs.Span(r.spanBase); base != 0 {
			for j := range events {
				if events[j].Span != 0 {
					events[j].Span += base
				}
				if events[j].Parent != 0 {
					events[j].Parent += base
				}
			}
		}
		r.spanBase += k.SpanCount()
		obs.TagAll(events, obs.T("exp", r.ID))
		streams[i] = events
		total += len(events)
	}
	r.Events = slices.Grow(r.Events, total)
	idx := make([]int, len(streams))
	for range total {
		best := -1
		for i, s := range streams {
			if idx[i] >= len(s) {
				continue
			}
			if best == -1 || merge && s[idx[i]].At.Before(streams[best][idx[best]].At) {
				best = i
			}
		}
		r.Events = append(r.Events, streams[best][idx[best]])
		idx[best]++
	}
}

// provenanceTreeLimit caps the rendered tree; larger forests (C7 runs
// 30,000 hosts) report stats only.
const provenanceTreeLimit = 40

// attachProvenance appends the causal-forest summary block once the
// experiment has captured all its kernels. No-op for span-free streams.
func (r *Result) attachProvenance() {
	f := provenance.Build(r.Events)
	if len(f.Nodes) == 0 {
		return
	}
	var b strings.Builder
	b.WriteString(provenance.RenderStats(f.Stats()))
	if len(f.Nodes) <= provenanceTreeLimit {
		b.WriteString("\n")
		f.Text(&b)
	}
	r.block(b.String())
}

// Metric returns the named metric's value (and whether it exists).
func (r *Result) Metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// MustMetric returns the named metric or panics (experiment authoring
// error).
func (r *Result) MustMetric(name string) float64 {
	v, ok := r.Metric(name)
	if !ok {
		panic(fmt.Sprintf("core: experiment %s has no metric %q", r.ID, name))
	}
	return v
}

// Render produces the experiment's report block.
func (r *Result) Render() string {
	var b strings.Builder
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "[%s] %s — %s\n", r.ID, r.Title, status)
	if r.Paper != "" {
		fmt.Fprintf(&b, "  paper: %s\n", r.Paper)
	}
	for _, m := range r.Metrics {
		unit := m.Unit
		if unit != "" {
			unit = " " + unit
		}
		fmt.Fprintf(&b, "  %-38s %14.4g%s\n", m.Name, m.Value, unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Runner executes one experiment with a seed under a run environment;
// it builds every world with that Env.
type Runner func(env *Env, seed uint64) (*Result, error)

// experiment is one registry row. A hidden experiment runs when named
// but is never listed, so -all and -report cannot pick it up.
type experiment struct {
	id     string
	run    Runner
	hidden bool
}

// experiments is the registry in report order: ExperimentIDs lists it
// and LookupExperiment resolves it.
var experiments = []experiment{
	{id: "F1", run: RunF1StuxnetOperation},
	{id: "F2", run: RunF2WPADMitm},
	{id: "F3", run: RunF3CertForging},
	{id: "F4", run: RunF4CnCPlatform},
	{id: "F5", run: RunF5CnCServer},
	{id: "F6", run: RunF6ShamoonComponents},
	{id: "C1", run: RunC1ZeroDays},
	{id: "C2", run: RunC2Centrifuge},
	{id: "C3", run: RunC3Targeting},
	{id: "C4", run: RunC4FlameSize},
	{id: "C5", run: RunC5ExfilVolume},
	{id: "C6", run: RunC6Suicide},
	{id: "C7", run: RunC7AramcoScale},
	{id: "C8", run: RunC8JPEGBug},
	{id: "C9", run: RunC9Reporter},
	{id: "C10", run: RunC10AirGap},
	{id: "C11", run: RunC11Bluetooth},
	{id: "T1", run: RunT1Trends},
	{id: "A1", run: RunA1AblationPatching},
	{id: "A2", run: RunA2AblationAdvisory},
	{id: "A3", run: RunA3EpidemicCurve},
	{id: "E1", run: RunE1DuquTargeting},
	{id: "E2", run: RunE2GaussGodel},
	{id: "E3", run: RunE3Lineage},
	{id: "E4", run: RunE4Sinkhole},
	{id: "R1", run: RunR1StuxnetTakedownP2P},
	{id: "R2", run: RunR2FlameDomainAgility},
	{id: "R3", run: RunR3ShamoonBlackout},
	{id: "R4", run: RunR4CrashPersistence},
	{id: "R5", run: RunR5AVAttrition},
	{id: "D1", run: RunD1CNIDetection},
	{id: "D2", run: RunD2CrossCampaign},
	{id: "D3", run: RunD3FalsePositives},
	{id: "D4", run: RunD4NoisyPrecision},
	{id: "D5", run: RunD5NoiseFloor},
	// X1 is the supervision self-test: its purpose is to hang.
	{id: "X1", run: RunX1Spin, hidden: true},
}

// ExperimentIDs returns every listed experiment ID in report order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range experiments {
		if !e.hidden {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// LookupExperiment resolves an experiment ID, hidden ones included.
func LookupExperiment(id string) (Runner, bool) {
	for _, e := range experiments {
		if e.id == id {
			return e.run, true
		}
	}
	return nil, false
}
