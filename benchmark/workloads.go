package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/malware/shamoon"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/users"
)

// Fixed settings. They are part of what the benchmark measures, so a
// change to any of them is a change to the benchmark.
const (
	partitionWorkers = 2 // sim.PartitionSet width of the fleet workloads
	catalogWorkers   = 1 // core.RunExperiments pool width of the catalog
	fleetSites       = 6 // the registry C7 layout
)

// scale sizes the workloads. The benchmark runs fullScale; the smoke test
// runs toyScale, which exercises every code path in a few seconds.
type scale struct {
	fleetHosts int      // workstations of both fleets
	catalog    []string // experiment IDs of the catalog workload
	replayExps []string // experiments exported beside the busy fleet for trace_replay
}

func fullScale() scale {
	var catalog []string
	for _, id := range core.ExperimentIDs() {
		if id != "C7" { // the fleets cover C7
			catalog = append(catalog, id)
		}
	}
	return scale{
		fleetHosts: 30000,
		catalog:    catalog,
		replayExps: []string{"D1", "D2", "D3", "D4", "D5"},
	}
}

func toyScale() scale {
	return scale{fleetHosts: 600, catalog: []string{"F3", "C1", "D1"}, replayExps: []string{"D1"}}
}

// expectation is what a correct run must produce for one workload.
type expectation struct {
	Digest string  `json:"digest"`
	Items  float64 `json:"items"`
}

// bench is the state one invocation shares across its reps.
type bench struct {
	seed  uint64
	scale scale
}

// rep is one repetition of a workload: its timings, the work it did, and
// what its correctness gate found.
type rep struct {
	tr       *tracer
	setup    time.Duration
	run      time.Duration
	items    float64 // kernel events fired, or trace records replayed
	digest   string
	problems []string
	// counts are per-layer counts read from the program's own outputs.
	counts map[string]float64
	// simWall is the wall time kernels spent stepping, summed over
	// partitions (the run wall for unpartitioned work).
	simWall time.Duration
}

// call runs fn inside a span.
func (r *rep) call(name string, fn func() error) error {
	defer r.tr.begin(name)()
	return fn()
}

// timeSetup runs fn as the rep's set-up.
func (r *rep) timeSetup(name string, fn func() error) error {
	defer r.tr.begin(rootSetup)()
	t0 := time.Now()
	err := r.call(name, fn)
	r.setup = time.Since(t0)
	return err
}

// timeRun runs fn as the rep's timed run.
func (r *rep) timeRun(fn func() error) error {
	defer r.tr.begin(rootRun)()
	t0 := time.Now()
	err := fn()
	r.run = time.Since(t0)
	return err
}

func (r *rep) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// prepare builds, untimed, what every rep starts from.
	prepare(b *bench) error
	// rep performs one repetition's set-up and run and keeps its outputs.
	// Every rep times its own set-up, so a run's set-up samples spread
	// over the run as its run samples do.
	rep(b *bench, r *rep) error
	// check verifies the kept outputs, fills r's digest, items and counts,
	// and drops the outputs.
	check(b *bench, r *rep)
}

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"fleet_wipe", "fleet_busy", "catalog", "trace_replay"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "fleet_wipe":
		return &fleetWorkload{}, nil
	case "fleet_busy":
		return &fleetWorkload{busy: true}, nil
	case "catalog":
		return &catalogWorkload{}, nil
	case "trace_replay":
		return &replayWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// --- fleets ---

// fleetWorkload is the six-site Aramco fleet run to trigger+2h: silent
// with a muted trace (fleet_wipe), or with enterprise user activity, a
// live trace, and capture, provenance and detection after the run
// (fleet_busy).
type fleetWorkload struct {
	busy bool

	runUntil time.Duration
	fleet    *core.AramcoFleet
	res      *core.Result
	forest   *provenance.Forest
	alerts   []detect.Alert
}

func fleetOptions(hosts int, busy bool) core.AramcoFleetOptions {
	opts := core.AramcoFleetOptions{
		Workstations: hosts,
		Sites:        fleetSites,
		DocsPerHost:  2,
		SpreadEvery:  2 * time.Hour,
		LeanImages:   true,
		Activity:     users.MixNone,
		MuteTrace:    true,
		Workers:      partitionWorkers,
	}
	if busy {
		opts.Activity = users.MixEnterprise
		opts.MuteTrace = false
	}
	return opts
}

var fleetDeadline = shamoon.AramcoTrigger.Add(2 * time.Hour)

func (w *fleetWorkload) prepare(*bench) error { return nil }

func (w *fleetWorkload) rep(b *bench, r *rep) error {
	err := r.timeSetup("core.build_fleet", func() (err error) {
		w.fleet, err = core.BuildAramcoFleet(b.seed, fleetOptions(b.scale.fleetHosts, w.busy))
		return err
	})
	if err != nil {
		return err
	}
	return r.timeRun(func() error {
		t0 := time.Now()
		if err := r.call("sim.run_until", func() error { return w.fleet.RunUntil(fleetDeadline) }); err != nil {
			return err
		}
		w.runUntil = time.Since(t0)
		if !w.busy {
			return nil
		}
		w.res = &core.Result{ID: "C7"}
		_ = r.call("core.capture_merge", func() error { w.res.CaptureObsMerged(w.fleet.Kernels()...); return nil })
		_ = r.call("provenance.build", func() error { w.forest = provenance.Build(w.res.Events); return nil })
		return r.call("detect.replay", func() (err error) {
			w.alerts, err = detect.Replay(w.res.Events, detect.CNIRulePack())
			return err
		})
	})
}

func (w *fleetWorkload) check(b *bench, r *rep) {
	defer func() { w.fleet, w.res, w.forest, w.alerts = nil, nil, nil, nil }()
	f := w.fleet
	if w.res == nil { // fleet_wipe captures outside its timed run
		w.res = &core.Result{ID: "C7"}
		w.res.CaptureObsMerged(f.Kernels()...)
	}
	n := b.scale.fleetHosts
	if got := f.InfectedCount(); got != n {
		r.failf("infected %d of %d hosts", got, n)
	}
	if got := f.WipedCount(); got != n {
		r.failf("wiped %d of %d hosts", got, n)
	}
	if got := len(f.Reports()); got != n {
		r.failf("hub received %d of %d wipe reports", got, n)
	}
	early := 0
	for _, sc := range f.Sites {
		for _, h := range sc.Hosts {
			for _, e := range h.EventLog() {
				if strings.Contains(e.Message, "host wiped") && e.At.Before(shamoon.AramcoTrigger) {
					early++
				}
			}
		}
	}
	if early != 0 {
		r.failf("%d hosts wiped before the trigger", early)
	}

	d := newDigest()
	d.json(w.res.Obs.JSON())
	d.err(obs.WriteJSONL(d, w.res.Events))
	if w.busy {
		d.err(detect.WriteAlertsJSONL(d, w.alerts))
		io.WriteString(d, provenance.RenderStats(w.forest.Stats()))
	}
	r.digest = d.sum(r)
	r.items = w.res.Obs.Counters["sim.event.execute"]

	countObs(r, w.res.Obs)
	r.counts["obs.retained_records"] = float64(len(w.res.Events))
	if w.busy {
		r.counts["provenance.nodes"] = float64(len(w.forest.Nodes))
		r.counts["detect.alerts"] = float64(len(w.alerts))
	}
	for _, st := range f.Set.Stats() {
		r.simWall += st.Wall
	}
	partitionShape(r, f, w.runUntil)
}

// --- catalog ---

// catalogWorkload runs the registry's experiments other than C7 through
// core.RunExperiments and renders the EXPERIMENTS.md report from them.
type catalogWorkload struct {
	reports  []core.RunReport
	markdown string
}

func (w *catalogWorkload) prepare(*bench) error { return nil }

// catalogSetupRounds is how many times a catalog rep builds its worlds,
// each time after a garbage collection. One round takes about 30 ms, and
// bursts of other load or of collection work lengthen single rounds by up
// to 2x, so the rep's set-up is the fastest round.
const catalogSetupRounds = 9

// rep's set-up samples the cost the catalog's experiments pay before they
// simulate, which the runners hide inside the run: building a world
// (kernel, internet, PKI), once per experiment. The worlds are dropped.
func (w *catalogWorkload) rep(b *bench, r *rep) error {
	fastest := time.Duration(1<<63 - 1)
	for range catalogSetupRounds {
		runtime.GC()
		err := r.timeSetup("core.new_world", func() error {
			for range b.scale.catalog {
				if _, err := core.NewWorld(core.WorldConfig{Seed: b.seed}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		fastest = min(fastest, r.setup)
	}
	r.setup = fastest
	return r.timeRun(func() error {
		// One call per experiment gives each its own span. The runner is
		// sequential at catalogWorkers, so the reports are those of one
		// call with every ID.
		for _, id := range b.scale.catalog {
			_ = r.call("core.exp."+id, func() error {
				w.reports = append(w.reports, core.RunExperiments([]string{id}, b.seed, catalogWorkers)...)
				return nil
			})
		}
		return r.call("core.render_report", func() error {
			w.markdown = core.RenderExperimentsMarkdown(w.reports, b.seed)
			return nil
		})
	})
}

func (w *catalogWorkload) check(b *bench, r *rep) {
	defer func() { w.reports, w.markdown = nil, "" }()
	d := newDigest()
	io.WriteString(d, w.markdown)
	var all obs.Snapshot
	for _, rp := range w.reports {
		switch {
		case rp.Err != nil:
			r.failf("%s: %v", rp.ID, rp.Err)
			continue
		case !rp.Result.Pass:
			r.failf("%s did not pass", rp.ID)
		}
		d.json(rp.Result.Obs.JSON())
		all.Merge(rp.Result.Obs)
	}
	records := 0
	for _, rp := range w.reports {
		if rp.Result != nil {
			d.err(obs.WriteJSONL(d, rp.Result.Events))
			records += len(rp.Result.Events)
		}
	}
	r.digest = d.sum(r)
	r.items = all.Counters["sim.event.execute"]
	countObs(r, all)
	r.counts["obs.retained_records"] = float64(records)
	r.simWall = r.run
}

// --- trace replay ---

// replayWorkload is offline analysis of an exported trace: prepare runs
// the busy fleet and the detection experiments once; each rep's set-up
// exports their traces as JSONL, and its run parses the export, rebuilds
// and validates the provenance forest, and replays the CNI rule pack over
// it.
type replayWorkload struct {
	source []obs.Event
	jsonl  bytes.Buffer

	events []obs.Event
	issues []string
	stats  provenance.Stats
	nodes  int
	alerts bytes.Buffer
	fired  int
}

func (w *replayWorkload) prepare(b *bench) error {
	f, err := core.BuildAramcoFleet(b.seed, fleetOptions(b.scale.fleetHosts, true))
	if err != nil {
		return err
	}
	if err := f.RunUntil(fleetDeadline); err != nil {
		return err
	}
	res := &core.Result{ID: "C7"}
	res.CaptureObsMerged(f.Kernels()...)
	w.source = res.Events
	for _, rp := range core.RunExperiments(b.scale.replayExps, b.seed, catalogWorkers) {
		if rp.Err != nil {
			return rp.Err
		}
		w.source = append(w.source, rp.Result.Events...)
	}
	return nil
}

func (w *replayWorkload) rep(b *bench, r *rep) error {
	err := r.timeSetup("obs.write_jsonl", func() error {
		w.jsonl.Reset()
		return obs.WriteJSONL(&w.jsonl, w.source)
	})
	if err != nil {
		return err
	}
	return r.timeRun(func() error {
		err := r.call("obs.parse_jsonl", func() (err error) {
			w.events, err = obs.ParseJSONL(bytes.NewReader(w.jsonl.Bytes()))
			return err
		})
		if err != nil {
			return err
		}
		var forest *provenance.Forest
		_ = r.call("provenance.build", func() error { forest = provenance.Build(w.events); return nil })
		_ = r.call("provenance.validate", func() error { w.issues = forest.Validate(); return nil })
		_ = r.call("provenance.stats", func() error { w.stats = forest.Stats(); return nil })
		w.nodes = len(forest.Nodes)
		var alerts []detect.Alert
		err = r.call("detect.replay", func() (err error) {
			alerts, err = detect.Replay(w.events, detect.CNIRulePack())
			return err
		})
		if err != nil {
			return err
		}
		w.fired = len(alerts)
		w.alerts.Reset()
		return r.call("detect.write_alerts", func() error { return detect.WriteAlertsJSONL(&w.alerts, alerts) })
	})
}

func (w *replayWorkload) check(b *bench, r *rep) {
	defer func() { w.events, w.issues = nil, nil }()
	if len(w.events) != len(w.source) {
		r.failf("parsed %d of %d exported records", len(w.events), len(w.source))
	}
	if len(w.issues) != 0 {
		r.failf("provenance forest invalid: %s", w.issues[0])
	}
	d := newDigest()
	d.Write(w.alerts.Bytes())
	io.WriteString(d, provenance.RenderStats(w.stats))
	r.digest = d.sum(r)
	r.items = float64(len(w.events))
	r.counts = map[string]float64{
		"obs.retained_records": float64(len(w.events)),
		"provenance.nodes":     float64(w.nodes),
		"detect.alerts":        float64(w.fired),
	}
}

// --- shared helpers ---

// countObs fills r.counts from an obs snapshot of the program's own
// counters.
func countObs(r *rep, s obs.Snapshot) {
	if r.counts == nil {
		r.counts = make(map[string]float64)
	}
	for _, c := range obsCounts {
		r.counts[c.metric] = s.Counters[c.counter]
	}
	actions := 0.0
	for _, c := range userActionCounters {
		actions += s.Counters[c]
	}
	r.counts["users.actions"] = actions
}

// obsCounts maps per-layer count metrics to the obs counters behind them.
var obsCounts = []struct{ metric, counter string }{
	{"sim.events", "sim.event.execute"},
	{"host.driver_loads", "host.driver.load"},
	{"host.files_wiped", "shamoon.file.wipe"},
	{"host.doc_writes", "users.doc.write"},
	{"netsim.requests", "internet.request.dispatch"},
	{"netsim.smb_copies", "lan.smb.copy"},
	{"cnc.entries", "cnc.entry.add"},
	{"detect.alerts", "detect.alert.total"}, // live engines; offline replays count their own
	{"users.ticks", "sim.handler.users-tick.execute"},
}

// userActionCounters are the counters users.Stats.Actions sums.
var userActionCounters = []string{
	"users.doc.write", "users.mail.send", "users.mail.recv", "users.web.browse",
	"users.share.copy", "users.usb.cycle", "users.tool.run", "users.host.maintain",
}

// partitionShape records how evenly the fleet's shards shared the work:
// busy share is the summed shard wall over workers x the run_until wall,
// imbalance the slowest shard's wall over the mean.
func partitionShape(r *rep, f *core.AramcoFleet, runUntil time.Duration) {
	stats := f.Set.Stats()
	var sum, max time.Duration
	for _, st := range stats {
		sum += st.Wall
		if st.Wall > max {
			max = st.Wall
		}
	}
	if sum == 0 || runUntil == 0 {
		return
	}
	r.counts["sim.partition_imbalance"] = float64(max) / (float64(sum) / float64(len(stats)))
	r.counts["sim.partition_busy_share"] = float64(sum) / float64(partitionWorkers*runUntil)
}

// digest hashes a workload's outputs in a fixed order.
type digest struct {
	hash.Hash
	failed error
}

func newDigest() *digest { return &digest{Hash: sha256.New()} }

func (d *digest) json(b []byte, err error) {
	d.err(err)
	d.Write(b)
}

func (d *digest) err(err error) {
	if err != nil && d.failed == nil {
		d.failed = err
	}
}

// sum returns the hex digest; an encoding failure is a failed check.
func (d *digest) sum(r *rep) string {
	if d.failed != nil {
		r.failf("encoding outputs: %v", d.failed)
	}
	return hex.EncodeToString(d.Sum(nil))
}
