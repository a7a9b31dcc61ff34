package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runstats"
)

// readManifest parses the -manifest file a run wrote.
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

func TestManifestFlag(t *testing.T) {
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

// TestManifestWrittenOnAbortedRun: the manifest is written from the same
// deferred block as -o, so a run that exits non-zero still leaves one,
// carrying the supervision counters of the abort.
func TestManifestWrittenOnAbortedRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "manifest.json")
	if err := run(context.Background(), []string{"-run", "X1,F3", "-stall", "100ms", "-manifest", out}); err == nil {
		t.Fatal("run with a stalled experiment exited zero")
	}
	m := readManifest(t, out)
	if m.Supervision.Stalls != 1 || m.Supervision.Cancels != 1 {
		t.Fatalf("supervision = %+v, want stalls 1, cancels 1", m.Supervision)
	}
}

// TestManifestCountsJournalServed: a resumed run's manifest counts the
// experiments the journal served instead of running them.
func TestManifestCountsJournalServed(t *testing.T) {
	dir := t.TempDir()
	journal, out := filepath.Join(dir, "run.journal"), filepath.Join(dir, "manifest.json")
	if err := run(context.Background(), []string{"-run", "F3,C1", "-journal", journal}); err != nil {
		t.Fatalf("journaled run: %v", err)
	}
	if err := run(context.Background(), []string{"-run", "F3,C1,C8", "-journal", journal, "-resume", "-manifest", out}); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got := readManifest(t, out).Supervision.JournalServed; got != 2 {
		t.Fatalf("journal_served = %d, want 2 (F3, C1)", got)
	}
}

// TestReportManifestHasReportPhase: under -report the manifest times the
// markdown render as its own phase. The run is cut by a shutdown before
// any experiment starts, as a signal would cut it, so the test also
// proves the manifest lands for a signal-cut run (and stays cheap).
func TestReportManifestHasReportPhase(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errors.New("signal interrupt"))
	out := filepath.Join(t.TempDir(), "manifest.json")
	if err := run(ctx, []string{"-report", "-manifest", out}); err == nil {
		t.Fatal("-report cut before any experiment exited zero")
	}
	for _, p := range readManifest(t, out).Phases {
		if p.Name == "report" {
			return
		}
	}
	t.Fatal("manifest lists no report phase")
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
