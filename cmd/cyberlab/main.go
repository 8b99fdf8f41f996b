// Command cyberlab runs the paper-reproduction experiments: every figure
// (F1–F6), every quantitative claim (C1–C11), the Section-V trend
// taxonomy (T1), the ablations (A1–A3), the extensions (E1–E4), the
// campaign-resilience series (R1–R5) driven by the fault-injection
// engine, and the detection series (D1–D5) including the populated-fleet
// precision/noise-floor measurements. See DESIGN.md for the index.
//
// Usage:
//
//	cyberlab -list
//	cyberlab -run F1 [-seed 7]
//	cyberlab -run F2,F3,C1 [-parallel 2]
//	cyberlab -run R1..R5 [-faults chaos]
//	cyberlab -run D1 [-activity enterprise]
//	cyberlab -all [-parallel 8] [-trace t.jsonl] [-metrics m.json]
//	cyberlab -run C7 [-partitions 4]
//	cyberlab -all -seeds 1..16 [-parallel 8]
//	cyberlab -report [-o EXPERIMENTS.md]
//	cyberlab -rules
//	cyberlab -run C7 [-progress] [-manifest manifest.json]
//	cyberlab -all -journal run.journal [-stall 30s] [-deadline 10m] [-max-retries 1]
//	cyberlab -all -journal run.journal -resume
//	cyberlab checkpoint -run C1 -at 30m [-seed 7] [-o c1.checkpoint]
//	cyberlab fork -from c1.checkpoint [-trace tail.jsonl]
//	cyberlab trace -in t.jsonl [-cat X] [-actor Y] [-tag k=v] [-chain F1/s3] [-dot out.dot]
//	cyberlab detect -in t.jsonl [-o alerts.jsonl]
//
// -faults selects the adversity profile the R-series experiments run
// under (none, light, takedown, chaos; default takedown). The profile is
// part of the determinism contract: a fixed seed and profile produce
// byte-identical reports, traces and metrics at any -parallel width.
//
// -activity populates scenario fleets (the Aramco and CNI worlds) with
// the benign user-activity layer (internal/users, DESIGN.md §11): none,
// office, developer, kiosk, or enterprise. The default is none — the
// historical silent fleets. D4/D5 always run populated regardless of the
// flag; like -faults, the mix is part of the determinism contract.
// `-activity none` and no -activity are the same silent run, so a journal
// or checkpoint written under either spelling resumes or forks under the
// other.
//
// -parallel fans experiments out across a worker pool; the report, trace
// and metrics outputs are byte-identical to a sequential run because each
// experiment owns an independent world and results are emitted in report
// order.
//
// -partitions sizes the worker pool that builds a partitioned world's
// site shards and advances them between deterministic sync epochs
// (DESIGN.md §14; today the C7 Aramco fleet, sharded across six sites).
// The site layout is scenario state, the worker count is not: reports,
// traces, metrics, provenance and alerts are byte-identical at
// -partitions 1, 2, 4 or 8 (0 = all cores), and the flag composes with
// -parallel, -journal, -resume and checkpoint/fork — a run journaled at
// one width resumes at any other. Per-experiment wall-clock timings go to
// stderr so the report itself stays deterministic. -seeds switches to a Monte Carlo sweep that
// aggregates per-metric min/mean/max across seeds. -trace writes the
// experiments' retained event records as JSONL (one object per line, each
// tagged exp=<ID>); -metrics writes the merged obs snapshot as JSON.
// -report renders the run as EXPERIMENTS.md markdown (every experiment
// unless -run narrows it), making the committed document a reproducible
// build artefact (ci.sh fails on drift). -cpuprofile and -memprofile
// write pprof profiles of whatever the invocation ran. Every output
// destination is validated up front (existence AND writability) so a
// typo or a read-only directory fails before the experiments burn wall
// clock, and a write that still fails at the end (a full disk) fails the
// command. Stdout carries the report, so these outputs take a file name,
// never "-".
//
// -progress and -manifest attach the wall-clock telemetry plane
// (internal/runstats, DESIGN.md §12) to any run mode. -progress prints a
// live stderr ticker — experiments done, hosts attached, virtual time
// reached, fired events per wall second, queue depth, heap watermark —
// for long fleet-scale runs. -manifest writes a JSON run manifest
// (wall-clock totals, per-phase and per-experiment breakdowns, kernel
// hot-loop stats, heap watermarks, supervision counters) when the run
// ends, failed experiments included. The manifest is explicitly marked
// nondeterministic and is excluded from every drift gate. The probe
// plane is read-only: every drift-gated artefact (report, trace,
// metrics, alerts) stays byte-identical with or without it.
//
// The trace subcommand reads a `-trace` JSONL export back and
// reconstructs the causal provenance forest: who infected whom, over
// which vector, and when. Default output is the indented tree plus
// aggregate stats; -dot renders Graphviz; -chain prints one episode's
// root-to-leaf causal path.
//
// The detect subcommand replays a `-trace` JSONL export through the
// built-in detection rule pack (internal/detect) offline and emits the
// alert stream as JSONL — byte-identical to what a live engine attached
// to the same run would have produced. -rules lists the pack.
//
// Supervision (DESIGN.md §13): -stall arms a vtime-stall watchdog that
// aborts any experiment whose virtual clock freezes while events keep
// executing; -deadline bounds each experiment's wall clock. Aborted
// experiments are reported partial with a diagnostic (queue depth, last
// handler, open spans) and never contaminate sibling outputs.
// -max-retries re-runs deterministic failures; a retry that produces
// different bytes is flagged as a determinism violation, never silently
// accepted. -journal appends each completed experiment to a crash-safe
// JSONL file (content-hashed, fsync'd per record); -resume verifies the
// journal — tolerating a torn final line from a mid-write kill — and
// serves journaled experiments without re-running them, byte-identical
// at any -parallel width. SIGINT/SIGTERM trigger a graceful shutdown:
// in-flight experiments stop at their next step boundary, outputs and
// the journal flush, and the run exits with a RUN PARTIAL banner.
//
// The checkpoint subcommand freezes a replay checkpoint — the
// (experiment, seed, faults, activity) tuple, a virtual-time boundary,
// and a hash of the trace prefix — and fork restores one by
// deterministic re-execution, refusing on prefix-hash drift and muting
// the verified prefix out of the restored artefacts.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/runstats"
	"repro/internal/sim"
)

func main() {
	// Graceful shutdown (DESIGN.md §13): the first SIGINT/SIGTERM cancels
	// the run's context, which asks every in-flight experiment to stop at
	// its next step boundary and lets the run flush its journal, report
	// and telemetry before exiting with the partial-run banner; a second
	// signal exits hard.
	ctx, shutdown := context.WithCancelCause(context.Background())
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "\ncyberlab: %v: finishing current step and flushing outputs (send again to exit immediately)\n", s)
		shutdown(fmt.Errorf("signal %v", s))
		<-sig
		os.Exit(130)
	}()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cyberlab:", err)
		os.Exit(1)
	}
}

// run dispatches the command line; ctx is the graceful shutdown every
// subcommand that runs experiments builds its Env with.
func run(ctx context.Context, args []string) (err error) {
	if len(args) > 0 {
		switch args[0] {
		case "trace":
			return runTrace(args[1:])
		case "detect":
			return runDetect(args[1:])
		case "checkpoint":
			return runCheckpoint(ctx, args[1:])
		case "fork":
			return runFork(ctx, args[1:])
		}
	}
	fs := flag.NewFlagSet("cyberlab", flag.ContinueOnError)
	env := core.Env{Ctx: ctx}
	bindEnv(fs, &env, true)
	fs.DurationVar(&env.Stall, "stall", 0, "abort an experiment whose vtime freezes for this wall-clock window (0 = off)")
	fs.DurationVar(&env.Deadline, "deadline", 0, "abort any experiment exceeding this wall-clock budget (0 = off)")
	var (
		list       = fs.Bool("list", false, "list experiment IDs and exit")
		rules      = fs.Bool("rules", false, "list the built-in detection rule pack and exit")
		id         = fs.String("run", "", "run experiments by ID, comma-separated (e.g. F1 or F2,C1)")
		all        = fs.Bool("all", false, "run every experiment")
		genReport  = fs.Bool("report", false, "render the run as EXPERIMENTS.md markdown (every experiment unless -run)")
		seed       = fs.Uint64("seed", 1, "deterministic simulation seed")
		seeds      = fs.String("seeds", "", "seed sweep: A..B (inclusive) or comma list; aggregates min/mean/max per metric")
		parallel   = fs.Int("parallel", 1, "worker goroutines for -all, -run lists and -seeds")
		out        = fs.String("o", "", "also write the report to this file")
		traceOut   = fs.String("trace", "", "write retained trace events to this file as JSONL")
		metricsOut = fs.String("metrics", "", "write the merged metrics snapshot to this file as JSON")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf    = fs.String("memprofile", "", "write a heap profile to this file when the run finishes")
		manifest   = fs.String("manifest", "", "write the wall-clock JSON run manifest to this file when the run finishes")
		progress   = fs.Bool("progress", false, "print a live wall-clock telemetry ticker to stderr")
		journalP   = fs.String("journal", "", "record completed experiments to this crash-safe JSONL file (fsync per record)")
		resume     = fs.Bool("resume", false, "resume from -journal: serve journaled experiments without re-running them")
		maxRetries = fs.Int("max-retries", 0, "re-run a failed experiment up to N times; a retry must reproduce identical bytes or the run is flagged nondeterministic")
	)
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1 (got %d)", *parallel)
	}
	if *maxRetries < 0 {
		return fmt.Errorf("-max-retries must be >= 0 (got %d)", *maxRetries)
	}
	if *resume && *journalP == "" {
		return fmt.Errorf("-resume needs -journal FILE")
	}
	if *seeds != "" {
		switch {
		case *journalP != "":
			return fmt.Errorf("-journal records single-seed runs; it cannot capture a -seeds sweep")
		case *genReport:
			return fmt.Errorf("-report renders one seed's EXPERIMENTS.md; it cannot render a -seeds sweep")
		case *maxRetries > 0:
			return fmt.Errorf("-max-retries retries single-seed runs; a -seeds sweep never retries")
		case *traceOut != "":
			return fmt.Errorf("-trace needs per-run events, which a -seeds sweep discards; use a single-seed run")
		}
	}
	if env.Stall < 0 || env.Deadline < 0 {
		return fmt.Errorf("-stall and -deadline must be >= 0")
	}
	if *journalP != "" && !*genReport && *id == "" && !*all {
		return fmt.Errorf("-journal needs a run (-run, -all, or -report)")
	}
	// Fail on unwritable output destinations before experiments burn wall
	// clock, not minutes later at write time.
	for _, o := range []struct{ flag, path string }{
		{"-o", *out}, {"-trace", *traceOut}, {"-metrics", *metricsOut}, {"-manifest", *manifest},
		{"-cpuprofile", *cpuProf}, {"-memprofile", *memProf},
	} {
		if err := validateOutPath(o.flag, o.path, false); err != nil {
			return err
		}
	}

	switch {
	case *list:
		for _, eid := range core.ExperimentIDs() {
			fmt.Println(eid)
		}
		return nil
	case *rules:
		fmt.Printf("%-22s %-9s %-12s %s\n", "rule", "kind", "scope", "description")
		for _, r := range detect.CNIRulePack() {
			fmt.Printf("%-22s %-9s %-12s %s\n", r.Name, ruleKind(r), r.Scope, r.Desc)
		}
		fmt.Println("\nscope is the D2 transfer result: behavioural rules key on attacker technique and fire on")
		fmt.Println("weapons they were never written for; campaign rules key on CNI artifacts and stay silent")
		fmt.Println("elsewhere (run `cyberlab -run D2`; D4/D5 price each scope against benign noise).")
		return nil
	case *id == "" && !*all && !*genReport && *seeds == "":
		fs.Usage()
		return fmt.Errorf("specify -list, -rules, -run ID, -all, -report, or -seeds")
	}
	ids, seedList, err := selectIDs(*id, *seeds)
	if err != nil {
		return err
	}

	var journal *core.Journal
	if *journalP != "" {
		if journal, err = core.OpenJournal(*journalP, *resume, *seed, &env); err != nil {
			return fmt.Errorf("-journal: %w", err)
		}
		// A journal write error (disk full, yanked volume) must fail the
		// run even if every experiment passed: a silently incomplete
		// journal would skip re-runs on the next -resume.
		defer func() {
			if cerr := journal.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("-journal: %w", cerr))
			}
		}()
	}
	// The end-of-run outputs below are deferred so they are written
	// however the run ends, failed experiments included; a failed write
	// joins the run's own error.
	if *progress || *manifest != "" {
		c := runstats.Enable()
		stopTicker := func() {}
		if *progress {
			stopTicker = c.StartProgress(os.Stderr, runstats.DefaultProgressPeriod)
		}
		defer func() {
			stopTicker()
			runstats.Disable()
			if *manifest != "" {
				err = errors.Join(err, writeOut("-manifest", *manifest, c.Manifest().WriteJSON))
			}
		}()
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			runtime.GC() // settle live-heap numbers before the snapshot
			err = errors.Join(err, writeOut("-memprofile", *memProf, pprof.WriteHeapProfile))
		}()
	}
	var report bytes.Buffer
	emit := func(format string, a ...any) {
		fmt.Fprintf(&report, format, a...)
		fmt.Printf(format, a...)
	}
	if *out != "" {
		defer func() {
			err = errors.Join(err, writeOut("-o", *out, func(w io.Writer) error {
				_, err := report.WriteTo(w)
				return err
			}))
		}()
	}

	started := time.Now()
	if seedList != nil {
		entries := core.SweepSeeds(&env, ids, seedList, *parallel)
		emit("%s", core.RenderSweep(entries))
		passes, runs, errored := 0, 0, 0
		var merged obs.Snapshot
		for _, e := range entries {
			passes += e.Passes
			runs += e.Seeds
			errored += len(e.Errors)
			merged.Merge(e.Obs)
			fmt.Fprintf(os.Stderr, "%-4s %8.3fs across %d seeds\n", e.ID, e.Wall.Seconds(), e.Seeds)
		}
		emit("%d/%d sweep runs reproduced (%d experiments x %d seeds)\n",
			passes, runs, len(ids), len(seedList))
		fmt.Fprintf(os.Stderr, "sweep wall %v (%d workers)\n",
			time.Since(started).Round(time.Millisecond), *parallel)
		if err := writeMetrics(*metricsOut, merged); err != nil {
			return err
		}
		if passes != runs {
			return fmt.Errorf("%d sweep runs failed (%d runner errors)", runs-passes, errored)
		}
		return nil
	}

	// One seed: -report and -run/-all share everything but what they
	// print to stdout.
	opts := core.RunOptions{Env: &env, Workers: *parallel, MaxRetries: *maxRetries, Journal: journal}
	reports := core.RunExperimentsOpts(ids, *seed, opts)
	if *genReport {
		stopReport := runstats.Phase("report")
		md := core.RenderExperimentsMarkdown(reports, *seed)
		stopReport()
		emit("%s", md)
	} else {
		passed := 0
		for _, rep := range reports {
			if rep.Err != nil {
				emit("%v\n\n", rep.Err)
				continue
			}
			if rep.Result.Pass {
				passed++
			}
			emit("%s\n", rep.Result.Render())
		}
		emit("%d/%d experiments reproduced (seed %d)\n", passed, len(reports), *seed)
	}
	var merged obs.Snapshot
	for _, rep := range reports {
		fmt.Fprintf(os.Stderr, "%-4s %8.3fs\n", rep.ID, rep.Wall.Seconds())
		if rep.Result != nil {
			merged.Merge(rep.Result.Obs)
		}
	}
	fmt.Fprintf(os.Stderr, "total wall %v (%d workers)\n",
		time.Since(started).Round(time.Millisecond), *parallel)
	if *traceOut != "" {
		// Reports are in input order, so the bytes do not depend on the
		// worker count.
		err := writeOut("-trace", *traceOut, func(w io.Writer) error {
			for _, rep := range reports {
				if rep.Result == nil {
					continue
				}
				if err := obs.WriteJSONL(w, rep.Result.Events); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if err := writeMetrics(*metricsOut, merged); err != nil {
		return err
	}
	partialBanner(reports, *journalP, context.Cause(ctx))
	return reportErr(reports)
}

// selectIDs resolves what a run covers: the -run list, or every
// experiment when -run is absent (-all, -report, or a bare -seeds
// sweep), and the -seeds list, nil for a single-seed run.
func selectIDs(run, seeds string) (ids []string, seedList []uint64, err error) {
	ids = core.ExperimentIDs()
	if run != "" {
		if ids, err = parseIDs(run); err != nil {
			return nil, nil, err
		}
	}
	if seeds != "" {
		if seedList, err = parseSeeds(seeds); err != nil {
			return nil, nil, err
		}
	}
	return ids, seedList, nil
}

// parseArgs parses args into fs and rejects the first word left over,
// so a stray argument or an unknown subcommand fails instead of being
// silently dropped.
func parseArgs(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return nil
}

// ruleKind names a rule's matching primitive for the -rules listing.
func ruleKind(r detect.Rule) string {
	switch {
	case r.Threshold != nil:
		return "threshold"
	case r.Sequence != nil:
		return "sequence"
	default:
		return "single"
	}
}

// runDetect implements `cyberlab detect`: replay a JSONL trace export
// through the built-in rule pack and write the alert stream as JSONL.
func runDetect(args []string) error {
	fs := flag.NewFlagSet("cyberlab detect", flag.ContinueOnError)
	var (
		in  = fs.String("in", "", "JSONL trace export to read (required; \"-\" = stdin)")
		out = fs.String("o", "", "write the alert stream as JSONL to this file (default stdout)")
	)
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("detect: -in FILE is required")
	}
	if err := validateOutPath("-o", *out, true); err != nil {
		return err
	}
	events, err := readTrace(*in)
	if err != nil {
		return fmt.Errorf("detect: %w", err)
	}
	alerts, err := detect.Replay(events, detect.CNIRulePack())
	if err != nil {
		return err
	}
	if err := writeOut("-o", *out, func(w io.Writer) error { return detect.WriteAlertsJSONL(w, alerts) }); err != nil {
		return fmt.Errorf("detect: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%d alerts from %d events\n", len(alerts), len(events))
	return nil
}

// runCheckpoint implements `cyberlab checkpoint`: run one experiment to
// completion and freeze a replay checkpoint — the configuration tuple, a
// virtual-time boundary, and a content hash of the trace prefix up to it
// (DESIGN.md §13). The checkpoint JSON goes to stdout or -o.
func runCheckpoint(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("cyberlab checkpoint", flag.ContinueOnError)
	env := core.Env{Ctx: ctx}
	bindEnv(fs, &env, true)
	var (
		id   = fs.String("run", "", "experiment ID to checkpoint (required)")
		seed = fs.Uint64("seed", 1, "deterministic simulation seed")
		at   = fs.Duration("at", 0, "checkpoint boundary as virtual time past the simulation epoch (required, e.g. 30m)")
		out  = fs.String("o", "", "write the checkpoint JSON to this file (default stdout)")
	)
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("checkpoint: -run ID is required")
	}
	if _, ok := core.LookupExperiment(*id); !ok {
		return fmt.Errorf("checkpoint: unknown experiment %q (try -list)", *id)
	}
	if *at <= 0 {
		return fmt.Errorf("checkpoint: -at DURATION (virtual time past the epoch) is required")
	}
	if err := validateOutPath("-o", *out, true); err != nil {
		return err
	}
	cp, err := core.CaptureCheckpoint(&env, *id, *seed, sim.Epoch.Add(*at))
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := writeOut("-o", *out, func(w io.Writer) error { return core.WriteCheckpoint(w, cp) }); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	fmt.Fprintf(os.Stderr, "checkpoint %s seed %d at %s: %d of %d events in the verified prefix\n",
		cp.Experiment, cp.Seed, cp.VTime.Format(time.RFC3339), cp.PrefixLen, cp.TotalLen)
	return nil
}

// runFork implements `cyberlab fork`: restore a checkpoint by
// deterministic re-execution under the captured configuration, verify
// the replayed prefix hash, and render only the tail past the boundary.
func runFork(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("cyberlab fork", flag.ContinueOnError)
	env := core.Env{Ctx: ctx}
	bindEnv(fs, &env, false)
	var (
		from     = fs.String("from", "", "checkpoint file to restore (required)")
		traceOut = fs.String("trace", "", "write the tail trace events (past the checkpoint) to this file as JSONL")
	)
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *from == "" {
		return fmt.Errorf("fork: -from FILE is required")
	}
	if err := validateOutPath("-trace", *traceOut, false); err != nil {
		return err
	}
	cp, err := core.ReadCheckpoint(*from)
	if err != nil {
		return fmt.Errorf("fork: %w", err)
	}
	fr, err := core.Fork(&env, cp)
	if err != nil {
		return fmt.Errorf("fork: %w", err)
	}
	fmt.Printf("%s\n", fr.Result.Render())
	if *traceOut != "" {
		if err := writeOut("-trace", *traceOut, func(w io.Writer) error { return obs.WriteJSONL(w, fr.Result.Events) }); err != nil {
			return fmt.Errorf("fork: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "fork %s seed %d: prefix of %d events verified at %s, %d tail events restored\n",
		cp.Experiment, cp.Seed, cp.PrefixLen, cp.VTime.Format(time.RFC3339), fr.TailEvents)
	return nil
}

// bindEnv registers the run-environment flags on fs, parsing straight
// into env: -faults and -activity when withKey is set, -partitions
// always. run and checkpoint bind all three; fork binds only
// -partitions, because it replays under the checkpoint's own key. One
// binder gives every subcommand the same names, defaults and errors.
func bindEnv(fs *flag.FlagSet, env *core.Env, withKey bool) {
	if withKey {
		fs.Func("faults", "adversity profile for the R-series experiments (none, light, takedown, chaos; default takedown)", func(s string) error {
			k := env.Key()
			k.Faults = s
			return env.ParseKey(k)
		})
		fs.Func("activity", "benign user-activity mix for scenario fleets (none, office, developer, kiosk, enterprise; default none)", func(s string) error {
			k := env.Key()
			k.Activity = s
			return env.ParseKey(k)
		})
	}
	fs.Func("partitions", "worker goroutines building and advancing a partitioned world's site shards (default 1; 0 = all cores); output bytes are identical at any width", func(s string) error {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return fmt.Errorf("want a worker count >= 1, or 0 for all cores")
		}
		if n == 0 {
			n = runtime.GOMAXPROCS(0)
		}
		env.Partitions = n
		return nil
	})
}

// parseIDs splits a comma-separated -run value and validates every ID.
// Same-prefix ranges expand: "R1..R5" means R1,R2,R3,R4,R5.
func parseIDs(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		eid := strings.TrimSpace(part)
		if eid == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(eid, ".."); ok {
			expanded, err := expandIDRange(strings.TrimSpace(lo), strings.TrimSpace(hi))
			if err != nil {
				return nil, err
			}
			out = append(out, expanded...)
			continue
		}
		if _, ok := core.LookupExperiment(eid); !ok {
			return nil, fmt.Errorf("unknown experiment %q (try -list)", eid)
		}
		out = append(out, eid)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-run got no experiment IDs")
	}
	return out, nil
}

// expandIDRange turns "R1","R5" into R1..R5. Both ends must share a
// letter prefix, and every expanded ID must exist.
func expandIDRange(lo, hi string) ([]string, error) {
	loPre, loN, err1 := splitIDNum(lo)
	hiPre, hiN, err2 := splitIDNum(hi)
	if err1 != nil || err2 != nil || loPre != hiPre || hiN < loN {
		return nil, fmt.Errorf("bad -run range %s..%s (want e.g. R1..R5)", lo, hi)
	}
	var out []string
	for n := loN; n <= hiN; n++ {
		eid := fmt.Sprintf("%s%d", loPre, n)
		if _, ok := core.LookupExperiment(eid); !ok {
			return nil, fmt.Errorf("unknown experiment %q in range %s..%s (try -list)", eid, lo, hi)
		}
		out = append(out, eid)
	}
	return out, nil
}

// splitIDNum cuts an experiment ID into its letter prefix and number.
func splitIDNum(id string) (string, int, error) {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	n, err := strconv.Atoi(id[i:])
	if err != nil || i == 0 {
		return "", 0, fmt.Errorf("bad experiment ID %q", id)
	}
	return id[:i], n, nil
}

// reportErr turns a report slice into the process exit status: nil only
// when every experiment ran to completion and passed. The error is a
// one-line summary naming the experiments that did not complete and why,
// so a CI log's last line is enough to know what to rerun.
func reportErr(reports []core.RunReport) error {
	var bad []string
	for _, rep := range reports {
		switch {
		case rep.Skipped:
			bad = append(bad, rep.ID+" (skipped)")
		case rep.Violation:
			bad = append(bad, rep.ID+" (nondeterministic)")
		case rep.Partial:
			bad = append(bad, rep.ID+" (aborted)")
		case rep.Err != nil:
			bad = append(bad, rep.ID+" (error)")
		case !rep.Result.Pass:
			bad = append(bad, rep.ID+" (fail)")
		}
	}
	if len(bad) == 0 {
		return nil
	}
	const maxListed = 8
	listed := bad
	if len(bad) > maxListed {
		listed = append(bad[:maxListed:maxListed], fmt.Sprintf("+%d more", len(bad)-maxListed))
	}
	return fmt.Errorf("%d of %d experiments did not complete: %s",
		len(bad), len(reports), strings.Join(listed, ", "))
}

// partialBanner prints the RUN PARTIAL summary to stderr when a run was
// cut short (shutdown, the non-nil cause of a cancelled run context, or
// watchdog and deadline aborts). It never touches stdout: the report
// artefact stays deterministic, partial runs included.
func partialBanner(reports []core.RunReport, journalPath string, shutdown error) {
	done, served, aborted, skipped := 0, 0, 0, 0
	for _, rep := range reports {
		switch {
		case rep.Skipped:
			skipped++
		case rep.Partial:
			aborted++
		default:
			done++
			if rep.FromJournal {
				served++
			}
		}
	}
	if aborted == 0 && skipped == 0 && shutdown == nil {
		return
	}
	cause := "experiment aborts"
	if shutdown != nil {
		cause = shutdown.Error()
	}
	fmt.Fprintf(os.Stderr, "RUN PARTIAL (%s): %d done (%d from journal), %d aborted, %d skipped\n",
		cause, done, served, aborted, skipped)
	if journalPath != "" {
		fmt.Fprintf(os.Stderr, "rerun with -journal %s -resume to serve the %d completed experiments and run the rest\n",
			journalPath, done)
	}
}

// writeMetrics writes a merged obs snapshot as the -metrics JSON; an
// empty path writes nothing.
func writeMetrics(path string, snap obs.Snapshot) error {
	if path == "" {
		return nil
	}
	return writeOut("-metrics", path, func(w io.Writer) error {
		data, err := snap.JSON()
		if err == nil {
			_, err = w.Write(append(data, '\n'))
		}
		return err
	})
}

// writeOut renders one output artefact in memory, then writes it whole:
// to stdout when path is "" or "-" (only an output that defaults to
// stdout gets here with either), else to the file at path. Every output
// flag except -cpuprofile, which streams during the run, goes through
// here. A failed render touches no file, and any error names the flag,
// so a full disk fails the command instead of passing unnoticed.
func writeOut(flagName, path string, render func(io.Writer) error) error {
	var buf bytes.Buffer
	err := render(&buf)
	if err == nil {
		if path == "" || path == "-" {
			_, err = os.Stdout.Write(buf.Bytes())
		} else {
			err = os.WriteFile(path, buf.Bytes(), 0o644)
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	return nil
}

// readTrace parses the JSONL trace export that trace and detect take as
// -in; "-" reads stdin.
func readTrace(path string) ([]obs.Event, error) {
	r := io.Reader(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	events, err := obs.ParseJSONL(r)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return events, nil
}

// validateOutPath rejects output destinations that cannot possibly be
// written: a missing or non-directory parent, a path that is itself a
// directory, or a destination the process lacks permission to write
// (a read-only directory would otherwise only fail minutes later, when
// -memprofile or -o performs its deferred write). Every output flag
// goes through here, so a typo fails with the flag's name before any
// experiment burns wall clock. "-" is stdout, which only an output that
// defaults to it (stdoutOK: detect -o, checkpoint -o, trace -dot) may
// take; anywhere else stdout carries the command's own output, and "-"
// is refused rather than created as a file.
func validateOutPath(flagName, path string, stdoutOK bool) error {
	if path == "" || (path == "-" && stdoutOK) {
		return nil
	}
	if path == "-" {
		return fmt.Errorf("%s -: stdout carries the command's output; give a file name", flagName)
	}
	dir := filepath.Dir(path)
	info, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("%s %s: output directory %s does not exist", flagName, path, dir)
	}
	if !info.IsDir() {
		return fmt.Errorf("%s %s: %s is not a directory", flagName, path, dir)
	}
	if fi, err := os.Stat(path); err == nil {
		if fi.IsDir() {
			return fmt.Errorf("%s %s: path is a directory", flagName, path)
		}
		// The file exists: prove we can open it for writing without
		// truncating it.
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return fmt.Errorf("%s %s: not writable: %v", flagName, path, err)
		}
		f.Close()
		return nil
	}
	// The file does not exist yet: prove the directory accepts new
	// files with a sibling probe (created and removed immediately).
	probe, err := os.CreateTemp(dir, ".cyberlab-write-probe-*")
	if err != nil {
		return fmt.Errorf("%s %s: directory %s is not writable: %v", flagName, path, dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return nil
}

// runTrace implements `cyberlab trace`: read a JSONL export, reconstruct
// the provenance forest, and render it (text, DOT, or one causal chain).
func runTrace(args []string) error {
	fs := flag.NewFlagSet("cyberlab trace", flag.ContinueOnError)
	var (
		in     = fs.String("in", "", "JSONL trace export to read (required; \"-\" = stdin)")
		cat    = fs.String("cat", "", "keep only events of this category")
		actor  = fs.String("actor", "", "keep only events of this actor")
		tag    = fs.String("tag", "", "keep only events carrying this k=v tag (e.g. exp=F1)")
		chain  = fs.String("chain", "", "print the causal chain of one span: EXP/sN, or sN/N when one experiment is present")
		dotOut = fs.String("dot", "", "write the forest as Graphviz DOT to this file (\"-\" = stdout)")
	)
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("trace: -in FILE is required")
	}
	if err := validateOutPath("-dot", *dotOut, true); err != nil {
		return err
	}
	var tagKey, tagVal string
	if *tag != "" {
		var ok bool
		tagKey, tagVal, ok = strings.Cut(*tag, "=")
		if !ok || tagKey == "" {
			return fmt.Errorf("trace: -tag wants k=v (got %q)", *tag)
		}
	}

	events, err := readTrace(*in)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	kept := events[:0]
	for _, e := range events {
		if *cat != "" && e.Cat != *cat {
			continue
		}
		if *actor != "" && e.Actor != *actor {
			continue
		}
		if tagKey != "" {
			if v, ok := e.Get(tagKey); !ok || v != tagVal {
				continue
			}
		}
		kept = append(kept, e)
	}
	forest := provenance.Build(kept)

	if *chain != "" {
		id, err := parseSpanRef(*chain, forest)
		if err != nil {
			return err
		}
		nodes := forest.Chain(id)
		if nodes == nil {
			return fmt.Errorf("trace: span %s not in the (filtered) stream", id)
		}
		for i, n := range nodes {
			prefix := "origin"
			if i > 0 {
				prefix = fmt.Sprintf("hop %d (%s)", i, n.Vector)
			}
			fmt.Printf("%-18s %s  %s  [%s] %s  (%s)\n",
				prefix, n.ID, n.Actor, n.Cat, n.Msg, n.At.UTC().Format(time.RFC3339))
		}
		return nil
	}

	if *dotOut != "" {
		if err := writeOut("-dot", *dotOut, forest.DOT); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprint(os.Stderr, provenance.RenderStats(forest.Stats()))
		return nil
	}

	fmt.Print(provenance.RenderStats(forest.Stats()))
	if len(forest.Nodes) > 0 {
		fmt.Println()
		return forest.Text(os.Stdout)
	}
	return nil
}

// parseSpanRef resolves -chain's EXP/sN, sN or N forms against the
// forest. The bare forms need an unambiguous experiment tag.
func parseSpanRef(s string, f *provenance.Forest) (provenance.NodeID, error) {
	exp, rest, ok := strings.Cut(s, "/")
	if !ok {
		rest, exp = s, ""
		exps := f.Exps()
		if len(exps) == 1 {
			exp = exps[0]
		} else if len(exps) > 1 {
			return provenance.NodeID{}, fmt.Errorf(
				"trace: -chain %q is ambiguous across experiments %s; use EXP/sN", s, strings.Join(exps, ","))
		}
	}
	n, err := strconv.ParseUint(strings.TrimPrefix(rest, "s"), 10, 64)
	if err != nil || n == 0 {
		return provenance.NodeID{}, fmt.Errorf("trace: bad -chain span %q (want EXP/sN)", s)
	}
	return provenance.NodeID{Exp: exp, Span: obs.Span(n)}, nil
}

// parseSeeds accepts "A..B" (inclusive range, A <= B) or a comma list
// ("1,2,5"). Duplicates are kept: a sweep runs exactly the seeds asked
// for.
func parseSeeds(s string) ([]uint64, error) {
	if lo, hi, ok := strings.Cut(s, ".."); ok {
		a, err := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seeds range start %q: %v", lo, err)
		}
		b, err := strconv.ParseUint(strings.TrimSpace(hi), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seeds range end %q: %v", hi, err)
		}
		if b < a {
			return nil, fmt.Errorf("bad -seeds range %s: end before start", s)
		}
		if b-a >= 1<<16 {
			return nil, fmt.Errorf("-seeds range %s too large (max 65536 seeds)", s)
		}
		out := make([]uint64, 0, b-a+1)
		for v := a; ; v++ {
			out = append(out, v)
			if v == b {
				break
			}
		}
		return out, nil
	}
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seeds entry %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}
