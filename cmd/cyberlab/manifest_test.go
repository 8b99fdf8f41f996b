package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runstats"
)

// readManifest decodes a -manifest file.
func readManifest(t *testing.T, path string) runstats.Manifest {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m runstats.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	return m
}

func TestRunManifest(t *testing.T) {
	out := filepath.Join(t.TempDir(), "manifest.json")
	if err := run(context.Background(), []string{"-run", "A3,F3", "-manifest", out}); err != nil {
		t.Fatalf("-manifest run: %v", err)
	}
	m := readManifest(t, out)
	if m.Plane != "wall-clock" {
		t.Fatalf("plane = %q, want wall-clock", m.Plane)
	}
	if m.Kernel.Hosts < 512 { // A3's fleet
		t.Fatalf("hosts = %d, want >= 512", m.Kernel.Hosts)
	}
	if m.Kernel.EventsFired == 0 || m.Kernel.NsPerEvent <= 0 {
		t.Fatalf("kernel stats empty: %+v", m.Kernel)
	}
	if len(m.Experiments) != 2 {
		t.Fatalf("experiments = %d entries, want 2 (A3, F3)", len(m.Experiments))
	}
	for _, e := range m.Experiments {
		if !e.Ok {
			t.Fatalf("experiment %s marked failed in manifest", e.ID)
		}
	}
	// The global collector must not leak into subsequent invocations.
	if runstats.Active() != nil {
		t.Fatal("-manifest left the global collector enabled")
	}
}

// TestProfileValidatesOutput: the run manifest (the wall-clock
// profile) goes through the same fail-fast output validation as every
// other output flag: a doomed path is refused before anything runs, so
// no report is written and no collector is left enabled.
func TestProfileValidatesOutput(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.txt")
	for path, want := range map[string]string{
		filepath.Join(dir, "no", "such", "dir.json"): "does not exist",
		dir: "path is a directory",
	} {
		err := run(context.Background(), []string{"-run", "F3", "-o", report, "-manifest", path})
		if err == nil || !strings.Contains(err.Error(), "-manifest") || !strings.Contains(err.Error(), want) {
			t.Errorf("-manifest %s = %v, want a refusal naming -manifest and %q", path, err, want)
		}
		if _, err := os.Stat(report); err == nil {
			t.Fatalf("-manifest %s: the run went ahead and wrote its report", path)
		}
		if runstats.Active() != nil {
			t.Fatal("refused -manifest run left the global collector enabled")
		}
	}
}

// TestManifestCountsSupervision: a run whose experiments fail still
// writes its manifest, and the manifest counts the supervision layer's
// interventions in that run.
func TestManifestCountsSupervision(t *testing.T) {
	out := filepath.Join(t.TempDir(), "manifest.json")
	err := run(context.Background(), []string{"-run", "X1,F3", "-stall", "150ms", "-manifest", out})
	if err == nil || !strings.Contains(err.Error(), "X1 (aborted)") {
		t.Fatalf("supervised run = %v, want X1 (aborted)", err)
	}
	m := readManifest(t, out)
	if m.Supervision.Stalls != 1 || m.Supervision.Cancels != 1 {
		t.Fatalf("supervision = %+v, want 1 stall and 1 cancel", m.Supervision)
	}
	ok := make(map[string]bool)
	for _, e := range m.Experiments {
		ok[e.ID] = e.Ok
	}
	if len(m.Experiments) != 2 || ok["X1"] || !ok["F3"] {
		t.Fatalf("experiments = %+v, want X1 failed and F3 ok", m.Experiments)
	}
}

// TestProgressFlagKeepsReportBytes is the CLI face of the isolation
// property: the -o report of a -progress or -manifest run is
// byte-identical to a plain run's (the deeper trace/metrics assertion
// lives in internal/core's TestRunstatsDeterminismIsolation).
func TestProgressFlagKeepsReportBytes(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.txt")
	if err := run(context.Background(), []string{"-run", "F2,C8", "-o", plain}); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	a, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty report")
	}
	for _, flags := range [][]string{
		{"-progress"},
		{"-progress", "-manifest", filepath.Join(dir, "m.json")},
	} {
		probed := filepath.Join(dir, "probed.txt")
		if err := run(context.Background(), append([]string{"-run", "F2,C8", "-o", probed}, flags...)); err != nil {
			t.Fatalf("%v run: %v", flags, err)
		}
		b, err := os.ReadFile(probed)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%v changed the report bytes:\n--- plain ---\n%s\n--- probed ---\n%s", flags, a, b)
		}
	}
}

func TestValidateOutPathRejectsBadDestinations(t *testing.T) {
	dir := t.TempDir()
	if err := validateOutPath("-o", filepath.Join(dir, "missing", "x.json"), false); err == nil {
		t.Fatal("missing parent directory accepted")
	}
	if err := validateOutPath("-o", dir, false); err == nil {
		t.Fatal("directory destination accepted")
	}
	if err := validateOutPath("-o", filepath.Join(dir, "ok.json"), false); err != nil {
		t.Fatalf("valid destination rejected: %v", err)
	}
	// "-" is stdout: refused where stdout carries the command's own
	// output, accepted for an output that defaults to stdout.
	if err := validateOutPath("-o", "-", false); err == nil {
		t.Fatal(`"-" accepted for a file output`)
	}
	if err := validateOutPath("-o", "-", true); err != nil {
		t.Fatalf(`"-" rejected for a stdout output: %v`, err)
	}
	// Existing writable file: fine, and not truncated by validation.
	f := filepath.Join(dir, "existing.json")
	if err := os.WriteFile(f, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validateOutPath("-o", f, false); err != nil {
		t.Fatalf("existing file rejected: %v", err)
	}
	if data, _ := os.ReadFile(f); string(data) != "keep" {
		t.Fatal("validation truncated the existing file")
	}
}

// TestValidateOutPathRejectsUnwritable covers the fail-fast gap for
// -cpuprofile/-memprofile: a read-only directory must be caught up
// front, not when the deferred heap write fires after the run.
func TestValidateOutPathRejectsUnwritable(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores directory permission bits")
	}
	dir := t.TempDir()
	ro := filepath.Join(dir, "ro")
	if err := os.Mkdir(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	if err := validateOutPath("-memprofile", filepath.Join(ro, "heap.pb"), false); err == nil {
		t.Fatal("unwritable directory accepted")
	}
	roFile := filepath.Join(dir, "ro.json")
	if err := os.WriteFile(roFile, nil, 0o444); err != nil {
		t.Fatal(err)
	}
	if err := validateOutPath("-cpuprofile", roFile, false); err == nil {
		t.Fatal("read-only existing file accepted")
	}
}

// TestFailedWriteFailsCommand: an output that passes validation but
// fails when it is written at the end of the run (here a full disk)
// fails the command with the flag's name.
func TestFailedWriteFailsCommand(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, flag := range []string{"-o", "-trace", "-metrics", "-manifest", "-memprofile"} {
		err := run(context.Background(), []string{"-run", "F3", flag, "/dev/full"})
		if err == nil || !strings.Contains(err.Error(), flag+": ") {
			t.Errorf("-run F3 %s /dev/full = %v, want an error naming %s", flag, err, flag)
		}
	}
}

// TestDashIsNotAFile: stdout carries the report (or fork's render), so
// "-" given to a file output is refused up front instead of being
// created as a file named "-".
func TestDashIsNotAFile(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for _, args := range [][]string{
		{"-run", "F3", "-o", "-"},
		{"-run", "F3", "-trace", "-"},
		{"-run", "F3", "-manifest", "-"},
		{"fork", "-from", "c1.checkpoint", "-trace", "-"},
	} {
		if err := run(context.Background(), args); err == nil || !strings.Contains(err.Error(), "stdout") {
			t.Errorf("%v = %v, want a refusal naming stdout", args, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "-")); err == nil {
		t.Fatal(`a file named "-" was created`)
	}
}
