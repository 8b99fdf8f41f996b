package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runstats"
)

func TestProfileSubcommandManifest(t *testing.T) {
	out := filepath.Join(t.TempDir(), "manifest.json")
	if err := run(context.Background(), []string{"profile", "-run", "A3,F3", "-o", out}); err != nil {
		t.Fatalf("profile: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var m runstats.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
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
		t.Fatal("profile left the global collector enabled")
	}
}

func TestProfileRequiresMode(t *testing.T) {
	if err := run(context.Background(), []string{"profile"}); err == nil {
		t.Fatal("profile with no -run/-all accepted")
	}
}

func TestProfileUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), []string{"profile", "-run", "ZZ"}); err == nil {
		t.Fatal("profile -run ZZ accepted")
	}
}

func TestProfileBadParallel(t *testing.T) {
	if err := run(context.Background(), []string{"profile", "-run", "F3", "-parallel", "0"}); err == nil {
		t.Fatal("profile -parallel 0 accepted")
	}
}

// TestProgressFlagKeepsReportBytes is the CLI face of the isolation
// property: the -o report of a -progress run is byte-identical to a
// plain run's (the deeper trace/metrics assertion lives in
// internal/core's TestRunstatsDeterminismIsolation).
func TestProgressFlagKeepsReportBytes(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.txt")
	probed := filepath.Join(dir, "probed.txt")
	if err := run(context.Background(), []string{"-run", "F2,C8", "-o", plain}); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	if err := run(context.Background(), []string{"-run", "F2,C8", "-progress", "-o", probed}); err != nil {
		t.Fatalf("progress run: %v", err)
	}
	a, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(probed)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("-progress changed the report bytes:\n--- plain ---\n%s\n--- probed ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty report")
	}
}

func TestValidateOutPathRejectsBadDestinations(t *testing.T) {
	dir := t.TempDir()
	if err := validateOutPath("-o", filepath.Join(dir, "missing", "x.json")); err == nil {
		t.Fatal("missing parent directory accepted")
	}
	if err := validateOutPath("-o", dir); err == nil {
		t.Fatal("directory destination accepted")
	}
	if err := validateOutPath("-o", filepath.Join(dir, "ok.json")); err != nil {
		t.Fatalf("valid destination rejected: %v", err)
	}
	// Existing writable file: fine, and not truncated by validation.
	f := filepath.Join(dir, "existing.json")
	if err := os.WriteFile(f, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validateOutPath("-o", f); err != nil {
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
	if err := validateOutPath("-memprofile", filepath.Join(ro, "heap.pb")); err == nil {
		t.Fatal("unwritable directory accepted")
	}
	roFile := filepath.Join(dir, "ro.json")
	if err := os.WriteFile(roFile, nil, 0o444); err != nil {
		t.Fatal(err)
	}
	if err := validateOutPath("-cpuprofile", roFile); err == nil {
		t.Fatal("read-only existing file accepted")
	}
}

// TestProfileValidatesOutput: the profile subcommand goes through the
// same fail-fast output validation as every other output flag.
func TestProfileValidatesOutput(t *testing.T) {
	if err := run(context.Background(), []string{"profile", "-run", "F3", "-o", filepath.Join(t.TempDir(), "no", "such", "dir.json")}); err == nil {
		t.Fatal("profile -o into missing directory accepted")
	}
}
