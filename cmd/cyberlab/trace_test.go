package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout redirects os.Stdout around fn so subcommand output can be
// asserted byte-for-byte.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

// TestTraceSubcommandDeterministicAcrossWorkers is the acceptance check:
// exports produced under different -parallel counts reconstruct to
// byte-identical DOT and text renders, and the forest covers the
// Stuxnet, Flame and Shamoon campaigns.
func TestTraceSubcommandDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	var refDot, refText []byte
	for _, p := range []string{"1", "4", "8"} {
		export := filepath.Join(dir, "trace-"+p+".jsonl")
		if err := run(context.Background(), []string{"-run", "F1,C4,C9", "-parallel", p, "-trace", export}); err != nil {
			t.Fatalf("-parallel %s: %v", p, err)
		}
		dotPath := filepath.Join(dir, "out-"+p+".dot")
		if err := run(context.Background(), []string{"trace", "-in", export, "-dot", dotPath}); err != nil {
			t.Fatalf("trace -dot (-parallel %s export): %v", p, err)
		}
		dot, err := os.ReadFile(dotPath)
		if err != nil {
			t.Fatal(err)
		}
		text, terr := captureStdout(t, func() error {
			return run(context.Background(), []string{"trace", "-in", export})
		})
		if terr != nil {
			t.Fatalf("trace text: %v", terr)
		}
		if refDot == nil {
			refDot, refText = dot, []byte(text)
			continue
		}
		if !bytes.Equal(dot, refDot) {
			t.Errorf("-parallel %s: DOT differs from -parallel 1", p)
		}
		if !bytes.Equal([]byte(text), refText) {
			t.Errorf("-parallel %s: text render differs from -parallel 1", p)
		}
	}
	for _, campaign := range []string{"stuxnet installed", "flame installed", "shamoon installed"} {
		if !bytes.Contains(refDot, []byte(campaign)) {
			t.Errorf("DOT missing %q", campaign)
		}
	}
	if !bytes.HasPrefix(refDot, []byte("digraph provenance {")) || !bytes.HasSuffix(refDot, []byte("}\n")) {
		t.Error("DOT output not a well-formed digraph")
	}
	// Three experiments → three clusters.
	if n := bytes.Count(refDot, []byte("subgraph cluster_")); n != 3 {
		t.Errorf("DOT has %d clusters, want 3", n)
	}
}

func TestTraceChainWalk(t *testing.T) {
	dir := t.TempDir()
	export := filepath.Join(dir, "f1.jsonl")
	if err := run(context.Background(), []string{"-run", "F1", "-trace", export}); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return run(context.Background(), []string{"trace", "-in", export, "-chain", "F1/s3"})
	})
	if err != nil {
		t.Fatalf("trace -chain: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("chain depth = %d lines, want origin + one hop:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "origin") || !strings.Contains(lines[0], "stuxnet installed") {
		t.Errorf("chain origin line: %q", lines[0])
	}
	if !strings.Contains(lines[1], "hop 1") || !strings.Contains(lines[1], "spooler") {
		t.Errorf("chain hop line: %q", lines[1])
	}
	// The bare span form works when the stream has one experiment.
	bare, err := captureStdout(t, func() error {
		return run(context.Background(), []string{"trace", "-in", export, "-chain", "s3"})
	})
	if err != nil || bare != out {
		t.Errorf("bare -chain s3 output differs: err=%v", err)
	}
	if err := run(context.Background(), []string{"trace", "-in", export, "-chain", "F1/s999"}); err == nil {
		t.Error("unknown span accepted")
	}
}

func TestTraceFilters(t *testing.T) {
	dir := t.TempDir()
	export := filepath.Join(dir, "multi.jsonl")
	if err := run(context.Background(), []string{"-run", "F1,C4", "-trace", export}); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return run(context.Background(), []string{"trace", "-in", export, "-tag", "exp=F1"})
	})
	if err != nil {
		t.Fatalf("trace -tag: %v", err)
	}
	if strings.Contains(out, "flame") || !strings.Contains(out, "stuxnet") {
		t.Errorf("-tag exp=F1 did not isolate the Stuxnet forest:\n%s", out)
	}
	out, err = captureStdout(t, func() error {
		return run(context.Background(), []string{"trace", "-in", export, "-cat", "infect", "-actor", "ENG-STATION"})
	})
	if err != nil {
		t.Fatalf("trace -cat -actor: %v", err)
	}
	if !strings.Contains(out, "ENG-STATION") || strings.Contains(out, "OFFICE-1") {
		t.Errorf("-cat/-actor filter leaked other actors:\n%s", out)
	}
}

func TestTraceArgValidation(t *testing.T) {
	if err := run(context.Background(), []string{"trace"}); err == nil {
		t.Error("trace without -in accepted")
	}
	if err := run(context.Background(), []string{"trace", "-in", "/does/not/exist.jsonl"}); err == nil {
		t.Error("missing input file accepted")
	}
	if err := run(context.Background(), []string{"trace", "-in", "x.jsonl", "-tag", "novalue"}); err == nil {
		t.Error("malformed -tag accepted")
	}
}

// TestOutputPathsValidatedUpFront is the fail-fast satellite: a doomed
// output destination must be rejected before any experiment runs, not
// after minutes of simulation.
func TestOutputPathsValidatedUpFront(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope", "deep")
	for _, args := range [][]string{
		{"-run", "F1", "-trace", filepath.Join(missing, "t.jsonl")},
		{"-run", "F1", "-metrics", filepath.Join(missing, "m.json")},
		{"-report", "-o", filepath.Join(missing, "r.md")},
	} {
		err := run(context.Background(), args)
		if err == nil {
			t.Errorf("%v: doomed output path accepted", args)
			continue
		}
		if !strings.Contains(err.Error(), "does not exist") {
			t.Errorf("%v: error does not name the missing directory: %v", args, err)
		}
	}
	// A directory given as the output file is just as doomed.
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-run", "F1", "-trace", dir}); err == nil ||
		!strings.Contains(err.Error(), "is a directory") {
		t.Errorf("directory output path: %v", err)
	}
	// trace -dot goes through the same gate.
	if err := run(context.Background(), []string{"trace", "-in", "whatever.jsonl", "-dot", filepath.Join(missing, "g.dot")}); err == nil ||
		!strings.Contains(err.Error(), "does not exist") {
		t.Error("trace -dot doomed path accepted")
	}
}
