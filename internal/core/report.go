package core

import (
	"fmt"
	"strings"
)

// The EXPERIMENTS.md generator. The committed file is a build artefact:
// `cyberlab -report` runs every experiment and renders this document from
// the live results, and ci.sh fails when the committed copy drifts from
// what the code actually measures. Everything here must therefore be
// deterministic for a fixed seed — sections and rows follow
// ExperimentIDs order, and every measured cell comes from a Result field
// the experiment computed, never from wall-clock or map iteration.

// ReportHeader marks the file as generated; the drift gate greps for it.
const ReportHeader = "<!-- GENERATED by `go run ./cmd/cyberlab -report`; do not edit by hand. -->"

// reportSection groups experiment IDs under one markdown heading.
type reportSection struct {
	Title string
	IDs   []string
}

// sectionTitle names the report section an experiment ID belongs to by
// its letter prefix; T and A share one. An unknown prefix has no
// section ("").
func sectionTitle(id string) string {
	switch id[:1] {
	case "F":
		return "Figures"
	case "C":
		return "Quantitative claims"
	case "T", "A":
		return "Taxonomy and ablations"
	case "E":
		return "Extensions: the paper's other named weapons and lineage claims"
	case "R":
		return "Resilience under adversity (R-series, fault profile \"takedown\")"
	case "D":
		return "Detection (D-series, streaming engine vs. the CNI campaign)"
	}
	return ""
}

// reportSections walks the registry in order and starts a new section
// whenever the title changes.
func reportSections() []reportSection {
	var secs []reportSection
	for _, id := range ExperimentIDs() {
		title := sectionTitle(id)
		if len(secs) == 0 || secs[len(secs)-1].Title != title {
			secs = append(secs, reportSection{Title: title})
		}
		last := &secs[len(secs)-1]
		last.IDs = append(last.IDs, id)
	}
	return secs
}

// cell flattens a string into one markdown table cell: pipes escaped,
// newlines folded to "; ".
func cell(s string) string {
	s = strings.TrimSpace(s)
	s = strings.ReplaceAll(s, "\r\n", "\n")
	s = strings.ReplaceAll(s, "\n", "; ")
	s = strings.ReplaceAll(s, "|", "\\|")
	if s == "" {
		s = "—"
	}
	return s
}

// RenderExperimentsMarkdown renders the full EXPERIMENTS.md from a run's
// reports. Reports may arrive in any order and may be a subset; rows
// render in ExperimentIDs order and missing experiments are omitted. A
// failed run still gets a row, carrying its error as the measured cell.
func RenderExperimentsMarkdown(reports []RunReport, seed uint64) string {
	byID := make(map[string]RunReport, len(reports))
	for _, rep := range reports {
		byID[rep.ID] = rep
	}

	var b strings.Builder
	b.WriteString(ReportHeader + "\n")
	fmt.Fprintf(&b, `# EXPERIMENTS — paper vs. measured

Every figure and quantitative claim of the paper, reproduced by
`+"`go run ./cmd/cyberlab -all`"+` (seed %d) and by the benchmark harness
(`+"`go test -bench=. -benchmem .`"+`). The paper has no numbered tables; its
evaluation content is the six figures plus prose claims, indexed in
DESIGN.md. "Measured" values below are from the deterministic seed-%d run;
the *shape* criteria (who succeeds, orderings, selectivity, crossovers)
are asserted by `+"`internal/core`"+`'s tests and each experiment's `+"`Pass`"+` flag.

Substrate note: absolute byte/volume numbers depend on our synthetic
corpus (documents, module padding); per DESIGN.md's substitution rules the
reproduction target is the mechanism and its shape, not the authors'
absolute testbed numbers.
`, seed, seed)

	for _, sec := range reportSections() {
		var rows, blocks []string
		for _, id := range sec.IDs {
			rep, ok := byID[id]
			if !ok {
				continue
			}
			if rep.Err != nil {
				rows = append(rows, fmt.Sprintf("| %s | — | error: %s | ERROR |", id, cell(rep.Err.Error())))
				continue
			}
			res := rep.Result
			status := "PASS"
			if !res.Pass {
				status = "FAIL"
			}
			measured := res.Summary
			if measured == "" {
				measured = "(no summary)"
			}
			rows = append(rows, fmt.Sprintf("| %s | %s | %s | %s |", id, cell(res.Paper), cell(measured), status))
			for _, blk := range res.Blocks {
				blocks = append(blocks, fmt.Sprintf("%s:\n\n```\n%s\n```", id, blk))
			}
		}
		if len(rows) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n## %s\n\n", sec.Title)
		fmt.Fprintf(&b, "| ID | Paper says | Measured (seed %d) | Status |\n|---|---|---|---|\n", seed)
		for _, row := range rows {
			b.WriteString(row + "\n")
		}
		for _, blk := range blocks {
			b.WriteString("\n" + blk + "\n")
		}
	}

	b.WriteString(`
## Reproducing

` + "```console" + `
$ go run ./cmd/cyberlab -all                  # all 35, ~20 s wall (incl. 30k-host C7)
$ go run ./cmd/cyberlab -run C7 -seed 9       # any experiment (or comma-separated list), any seed
$ go run ./cmd/cyberlab -run R1..R5 -faults chaos  # resilience series under another adversity profile
$ go run ./cmd/cyberlab -all -parallel 4      # same bytes, pool of 4 workers
$ go run ./cmd/cyberlab -all -seeds 1..8      # Monte Carlo sweep, min/mean/max per metric
$ go run ./cmd/cyberlab -all -trace t.jsonl -metrics m.json  # JSONL event trace + metrics snapshot
$ go run ./cmd/cyberlab -report               # regenerate this file's content
$ go test ./...                               # test-tier (C7 at 2,000 hosts; -short skips the 30k run)
$ go test -bench=. -benchmem .                # benchmark harness, one bench per row above
` + "```" + `

Determinism: identical seeds yield identical metrics
(` + "`TestExperimentDeterminism`" + `); trace, metrics and this report are
byte-identical for any ` + "`-parallel`" + ` worker count. This file is generated —
edit the experiments, then run
` + "`go run ./cmd/cyberlab -report -o EXPERIMENTS.md`" + ` (ci.sh fails on drift).
`)
	return b.String()
}
