#!/usr/bin/env bash
# CI gate for the repository. Runs the tier-1 verify (build + full tests)
# plus formatting, vet, race lanes over every package that runs work on
# more than one goroutine, fuzz lanes for the readers of external bytes,
# and the drift gates.
set -euo pipefail
cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt required on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Vet, with the offending package(s) called out up front — `go vet`
# buries them as `# pkg` headers inside the diagnostic stream.
if ! vet_out=$(go vet ./... 2>&1); then
    echo "go vet failed in package(s):" >&2
    echo "$vet_out" | sed -n 's/^# /  /p' >&2
    echo "$vet_out" >&2
    exit 1
fi
go build ./...
go test -timeout 900s ./...

# Benchmark-module lane: benchmark/ is a nested Go module (it imports the
# range through `replace repro => ../`), so the root `go build ./...` and
# `go test ./...` above skip it. Vet it and run its toy-scale smoke test
# (about 20 s), so removing or reshaping a core API the benchmark calls
# fails CI here instead of breaking `bash benchmark/run.sh` later.
go vet -C benchmark ./...
go test -C benchmark -timeout 300s .

# Substrate race lane: every package below runs whole under -race, once.
# Each experiment owns an independent world, so these fail only if shared
# mutable state sneaks into the substrate or into what crosses goroutines
# on purpose: the kernel's cancel requests and partition mailboxes (sim,
# netsim), the pool fan-outs inside one step (cnc's DecryptAll,
# analysis.CompareSamples), the pki memo of verified signatures and shared
# image digests that every host clone of a trust store shares and every
# exec of a shared image reads (pki, host; DESIGN.md §9), the live-trace
# subscribers (detect, the CNI campaign, users), obs.ParseJSONL's chunk workers with
# provenance rebuilding from their output (§6), and the runstats
# collector fed by every kernel probe and the progress ticker (§12).
go test -race -timeout 300s ./internal/sim ./internal/netsim ./internal/cnc ./internal/analysis \
    ./internal/faults ./internal/pki ./internal/detect ./internal/malware/cni ./internal/users \
    ./internal/obs ./internal/provenance ./internal/runstats ./internal/host

# Core race lane: under -short, TestExperimentDeterminism runs every
# experiment but C5 and the 30,000-host C7, plus the partitioned fleet,
# under every execution mode (DESIGN.md §5): worker pool, partition
# workers, telemetry, supervision, journal and checkpoint. The supervision
# (§13), fault, journal and partition (§14) tests cross goroutines by
# construction, so they run beside it.
go test -race -short -timeout 600s \
    -run 'Determinism|Parallel|Sweep|Watchdog|X1|Deadline|Shutdown|Retry|Journal|Checkpoint|Fork|Partition|Resilience|Runstats' \
    ./internal/core

# CLI race lane: the signal handler cancels in-flight experiments and the
# journal writer is shared by the runner's workers, so the supervision
# tests of cyberlab run under -race too.
go test -race -timeout 300s -run 'Cancel|Stall|Watchdog|Deadline|Shutdown|Retry|Journal|Checkpoint|Fork|Supervision' \
    ./cmd/cyberlab

# Bench lane: compile and run every obs/provenance/faults/pki/pe/cnc/
# analysis benchmark once, so a benchmark that rots (or an accidental
# per-event allocation regression caught by its companion test) fails CI
# rather than bitrotting.
go test -timeout 300s -bench=. -benchtime=1x -run '^$' ./internal/obs ./internal/provenance ./internal/faults ./internal/pki ./internal/pe ./internal/cnc ./internal/analysis

# Fuzz lane (ROADMAP, determinism and input robustness, item (b)): every
# reader of user-supplied bytes returns an error, never panics or hangs.
# FuzzParseJSONL also checks the trace decoder against its encoding/json
# reference (internal/obs/jsonl_ref_test.go); a failing input lands under
# internal/obs/testdata/fuzz/ and joins the seed corpus once committed.
go test -run '^$' -fuzz '^FuzzParseJSONL$' -fuzztime 15s ./internal/obs
# FuzzParse holds pe.Parse to the contract host execution relies on: a
# parsed image re-marshals to its input (flags word zeroed), its Digest is
# the SHA-256 of that encoding without the signature, and appending to a
# parsed slice never writes into the input it aliases.
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 15s ./internal/pe
# FuzzEventQueue holds the kernel's typed event queue to a container/heap
# reference (internal/sim/queue_test.go): the same Pending, NextEventAt,
# Timer state and fire order after every schedule, cancel, step and Every
# operation, and a balanced pool ledger once the queue is drained.
go test -run '^$' -fuzz '^FuzzEventQueue$' -fuzztime 10s ./internal/sim
# FuzzOpenJournal holds -resume to the same contract: any journal bytes
# either fail to open with an error, or replay into snapshots that merge
# into an empty snapshot and into themselves without an error, and the
# journal closes cleanly. Every input writes, reads and fsyncs a file,
# so a new input takes long to minimize; the 2 s cap keeps the lane
# fuzzing instead of minimizing for its whole budget.
go test -run '^$' -fuzz '^FuzzOpenJournal$' -fuzztime 10s -fuzzminimizetime 2s ./internal/core
# FuzzReadCheckpoint holds the checkpoint readers, ReadCheckpoint and
# Env.ParseKey, to the same contract: an accepted checkpoint writes,
# reads back and writes again to the same bytes, its key parses back to
# itself, and a version other than 1 makes Fork fail before it replays
# anything. Every input writes a file, so minimization is capped too.
go test -run '^$' -fuzz '^FuzzReadCheckpoint$' -fuzztime 10s -fuzzminimizetime 2s ./internal/core
# FuzzRun holds minilua, which parses and runs the module source a Flame
# agent receives through C&C pushes, to the same contract: a *SyntaxError
# or a chunk, and a chunk's run returns a value, a *RuntimeError or
# ErrFuelExhausted, never a panic; fuel, the call-depth bound and the
# string and table caps keep each run small. A cold cache finds new
# inputs faster than it minimizes them, so the 2 s cap keeps the lane
# fuzzing.
go test -run '^$' -fuzz '^FuzzRun$' -fuzztime 10s -fuzzminimizetime 2s ./internal/minilua
# FuzzParseImageSignature holds the signature-blob reader that every
# driver load runs through pki.VerifyImage to the same contract, and an
# accepted blob must re-marshal to exactly its input.
go test -run '^$' -fuzz '^FuzzParseImageSignature$' -fuzztime 10s -fuzzminimizetime 2s ./internal/pki
# FuzzDecodePackages holds cnc.DecodePackages, which every C&C client
# runs on GET_NEWS bodies, to the same contract, and an accepted body
# must re-encode to exactly its input.
go test -run '^$' -fuzz '^FuzzDecodePackages$' -fuzztime 10s -fuzzminimizetime 2s ./internal/cnc
# FuzzCompile holds yara.Compile, the rule-language front end of the
# dissection toolchain, to the same contract, and an accepted rule set
# must scan a fixed buffer without a panic.
go test -run '^$' -fuzz '^FuzzCompile$' -fuzztime 10s -fuzzminimizetime 2s ./internal/yara
# FuzzParseMBR holds host.ParseMBR, the reader of a disk's first sector,
# to the same contract: a wrong length or a missing 0x55AA is an error,
# an accepted sector survives a Marshal round trip, and the disk's
# in-place Bootable agrees with the parsed partition table.
go test -run '^$' -fuzz '^FuzzParseMBR$' -fuzztime 10s -fuzzminimizetime 2s ./internal/host

# Fleet-perf lane (DESIGN.md §9): run the seed / wipe / exec / event / C7 benchmarks
# with -benchmem, fold them into the "after" snapshot of a temp copy of
# BENCH_C7.json via benchjson, and gate the perf trajectory. The copy
# keeps a CI run from rewriting the committed file; refresh that on
# purpose by pointing the same benchjson -o command at BENCH_C7.json.
# Two gates run: the committed file must already parse with the required
# snapshot contents, and the fresh measurement must keep the C7-reduced
# bytes/op win at >= 2x the frozen baseline (B/op is deterministic;
# ns/op is allowed to vary).
# The C7 benches must also carry the ns/host-event unit cost (DESIGN.md
# §12); presence is gated, the value is wall-clock and free to vary.
# -require names must exist in every snapshot including the frozen
# baseline, so the §14 partitioned pair — which has no baseline entry by
# construction — is gated through -require-metric instead: the "after"
# snapshot must carry both benches with their ns/host-event unit cost.
bench_req='SeedDocumentsEager,ScheduleFire,ScheduleCancel,ClaimC7Reduced,ClaimC7AramcoScale'
bench_metric='ClaimC7Reduced=ns/host-event,ClaimC7AramcoScale=ns/host-event,ClaimC7Partitioned1=ns/host-event,ClaimC7Partitioned4=ns/host-event'
go run ./cmd/benchjson -check BENCH_C7.json -require "$bench_req" \
    -min-bytes-ratio ClaimC7Reduced=2 -require-metric "$bench_metric"
tmp_bench=$(mktemp)
tmp_bench_json=$(mktemp)
cp BENCH_C7.json "$tmp_bench_json"
go test -timeout 300s -run '^$' -bench 'SeedDocuments|CheckWipeLazy|ExecuteFileShared|WipePath|ReadMBR' -benchmem ./internal/host | tee -a "$tmp_bench"
go test -timeout 300s -run '^$' -bench 'ScheduleFire|ScheduleCancel' -benchtime=0.2s -benchmem ./internal/sim | tee -a "$tmp_bench"
# Every C7 bench runs the registry's six-site layout through the one C7
# runner. UsersC7BusyReduced is the populated twin of ClaimC7Reduced: its
# B/op next to the silent number is the machine-checkable form of the
# "busy fleet within 1.3x of the silent fleet" bound, which
# TestBusyFleetMemoryBound asserts at the same 2,000-host size.
# The Partitioned1/Partitioned4 pair prices the §14 site build plus the
# epoch-barrier and mailbox machinery at two worker widths over an
# identical world — both must carry the ns/host-event unit cost.
go test -timeout 600s -run '^$' -bench 'ClaimC7Reduced|ClaimC7AramcoScale|ClaimC7Partitioned|UsersC7BusyReduced' -benchtime=1x -benchmem . | tee -a "$tmp_bench"
go run ./cmd/benchjson -o "$tmp_bench_json" -label after \
    -require "$bench_req" -min-bytes-ratio ClaimC7Reduced=2 -require-metric "$bench_metric" < "$tmp_bench"
rm -f "$tmp_bench" "$tmp_bench_json"

# Telemetry lane (DESIGN.md §12): profile the full 30,000-host C7 run —
# now the six-site partitioned world (§14), advanced here by four shard
# workers — with the live progress ticker on, and gate the shape of the
# wall-clock manifest it emits: plane tag, kernel unit costs, phase
# timers, the per-experiment wall entry, the partition count, and the
# per-shard wall breakdown. Values are nondeterministic by design and
# never compared; only presence is gated.
tmp_manifest=$(mktemp)
go run ./cmd/cyberlab -run C7 -partitions 4 -progress -manifest "$tmp_manifest" >/dev/null
for key in '"plane": "wall-clock"' '"events_fired"' '"ns_per_event"' \
    '"max_queue_depth"' '"phases"' '"id": "C7"' '"wall_seconds"' \
    '"supervision"' '"partitions": 6' '"partition_wall"'; do
    if ! grep -qF "$key" "$tmp_manifest"; then
        echo "profile manifest is missing $key:" >&2
        cat "$tmp_manifest" >&2
        exit 1
    fi
done
rm -f "$tmp_manifest"

tmp_report=$(mktemp)
tmp_trace=$(mktemp)
tmp_dot=$(mktemp)
tmp_journal=$(mktemp)
trap 'rm -f "$tmp_report" "$tmp_trace" "$tmp_dot" "$tmp_journal"' EXIT

# Docs drift gate: EXPERIMENTS.md is a build artefact of `cyberlab -report`.
# Regenerate from a live run and fail if the committed copy differs. The
# run deliberately keeps the -progress ticker ON: a wall-clock telemetry
# leak into the report would trip this byte-for-byte diff (DESIGN.md §12).
# It also runs at -partitions 4 while the committed file was generated at
# the default width, so one diff gates both report drift AND the §14
# worker-count invariance of every partitioned experiment's report bytes.
go run ./cmd/cyberlab -report -progress -partitions 4 -o "$tmp_report" >/dev/null
if ! diff -u EXPERIMENTS.md "$tmp_report"; then
    echo "EXPERIMENTS.md drifted from the code; regenerate with:" >&2
    echo "  go run ./cmd/cyberlab -report -o EXPERIMENTS.md" >&2
    exit 1
fi

# Provenance drift gate: the trace subcommand must reconstruct the
# committed Stuxnet infection tree byte-for-byte from a fresh export.
go run ./cmd/cyberlab -run F1 -trace "$tmp_trace" >/dev/null
go run ./cmd/cyberlab trace -in "$tmp_trace" -dot "$tmp_dot" 2>/dev/null
if ! diff -u examples/provenance/f1-stuxnet.dot "$tmp_dot"; then
    echo "provenance DOT drifted; regenerate with:" >&2
    echo "  go run ./cmd/cyberlab -run F1 -trace f1.jsonl" >&2
    echo "  go run ./cmd/cyberlab trace -in f1.jsonl -dot examples/provenance/f1-stuxnet.dot" >&2
    exit 1
fi

# Faults drift gate: the R2 fault-category timeline under the default
# adversity profile — the committed record of what the engine injects and
# when — must reproduce byte-for-byte from a fresh run.
go run ./cmd/cyberlab -run R2 -trace "$tmp_trace" >/dev/null
go run ./cmd/cyberlab trace -in "$tmp_trace" -cat fault -actor faults >"$tmp_dot" 2>/dev/null
if ! diff -u examples/faults/r2-fault-timeline.txt "$tmp_dot"; then
    echo "fault timeline drifted; regenerate with:" >&2
    echo "  go run ./cmd/cyberlab -run R2 -trace r2.jsonl" >&2
    echo "  go run ./cmd/cyberlab trace -in r2.jsonl -cat fault -actor faults > examples/faults/r2-fault-timeline.txt" >&2
    exit 1
fi

# Detection drift gate: replaying D1's exported trace through the rule
# pack offline must reproduce the committed alert stream byte-for-byte
# (which the engine's tests also prove equal to the live alert stream).
go run ./cmd/cyberlab -run D1 -trace "$tmp_trace" >/dev/null
go run ./cmd/cyberlab detect -in "$tmp_trace" -o "$tmp_dot" 2>/dev/null
if ! diff -u examples/detect/d1-alerts.jsonl "$tmp_dot"; then
    echo "D1 alert stream drifted; regenerate with:" >&2
    echo "  go run ./cmd/cyberlab -run D1 -trace d1.jsonl" >&2
    echo "  go run ./cmd/cyberlab detect -in d1.jsonl -o examples/detect/d1-alerts.jsonl" >&2
    exit 1
fi

# Noise drift gate: the first 40 benign user-activity breadcrumbs of D5's
# exported trace — the committed sample of the users.<noun>.<verb> stream
# the noise-floor measurement runs on — must reproduce byte-for-byte.
go run ./cmd/cyberlab -run D5 -trace "$tmp_trace" >/dev/null
# (single awk, not `grep | head`: head's early exit would SIGPIPE grep
# and trip pipefail)
awk '/"cat":"user"/ { print; if (++n == 40) exit }' "$tmp_trace" >"$tmp_dot"
if ! diff -u examples/users/d5-noise.jsonl "$tmp_dot"; then
    echo "D5 noise stream drifted; regenerate with:" >&2
    echo "  go run ./cmd/cyberlab -run D5 -trace d5.jsonl" >&2
    echo "  grep '\"cat\":\"user\"' d5.jsonl | head -40 > examples/users/d5-noise.jsonl" >&2
    exit 1
fi

# Crash-inject + resume drift gate (DESIGN.md §13): journal one
# experiment of a three-experiment run, then simulate a SIGKILL between
# write and fsync by appending a torn half-record with no newline. The
# -resume run must truncate the torn tail, serve the journaled
# experiment, run the rest, and emit a report byte-identical to an
# uninterrupted run — at a different worker width than the baseline.
go run ./cmd/cyberlab -run F3,C1,C8 -o "$tmp_report" >/dev/null
rm -f "$tmp_journal"
go run ./cmd/cyberlab -run F3 -journal "$tmp_journal" >/dev/null
printf '{"kind":"experiment","id":"C1","seed":1,"hash":"dead' >>"$tmp_journal"
go run ./cmd/cyberlab -run F3,C1,C8 -journal "$tmp_journal" -resume -parallel 4 -o "$tmp_trace" >/dev/null
if ! diff -u "$tmp_report" "$tmp_trace"; then
    echo "resumed run drifted from the uninterrupted run (crash-inject gate)" >&2
    exit 1
fi
# A silent fleet has two spellings, `-activity none` and no -activity,
# that run the same bytes, so a journal written under one must resume
# under the other: F3 is served from the journal (recorded exactly once)
# and the report matches the uninterrupted run.
rm -f "$tmp_journal"
go run ./cmd/cyberlab -run F3 -journal "$tmp_journal" -activity none >/dev/null
go run ./cmd/cyberlab -run F3,C1,C8 -journal "$tmp_journal" -resume -o "$tmp_trace" >/dev/null
if [ "$(grep -c '"id":"F3"' "$tmp_journal")" != 1 ] || ! diff -u "$tmp_report" "$tmp_trace"; then
    echo "resume across the two silent-mix spellings re-ran F3 or drifted (crash-inject gate)" >&2
    exit 1
fi

echo "ci: all gates passed"
