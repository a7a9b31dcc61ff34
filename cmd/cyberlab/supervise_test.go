package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunJournalResume drives the full CLI path: a journaled run, then a
// -resume run that serves the journaled experiment instead of
// re-executing it.
func TestRunJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	if err := run(context.Background(), []string{"-run", "F3", "-journal", path}); err != nil {
		t.Fatalf("journaled run: %v", err)
	}
	if err := run(context.Background(), []string{"-run", "F3,C8", "-journal", path, "-resume"}); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	// Without -resume, reusing the journal must be refused.
	if err := run(context.Background(), []string{"-run", "F3", "-journal", path}); err == nil ||
		!strings.Contains(err.Error(), "-resume") {
		t.Fatalf("journal reuse without -resume = %v, want a refusal", err)
	}
}

func TestRunJournalFlagValidation(t *testing.T) {
	if err := run(context.Background(), []string{"-run", "F3", "-resume"}); err == nil ||
		!strings.Contains(err.Error(), "-journal") {
		t.Fatal("-resume without -journal accepted")
	}
	if err := run(context.Background(), []string{"-run", "F3", "-seeds", "1..2", "-journal", "x.journal"}); err == nil {
		t.Fatal("-journal with -seeds accepted")
	}
	if err := run(context.Background(), []string{"-list", "-journal", "x.journal"}); err == nil {
		t.Fatal("-journal without a run accepted")
	}
	// -report renders one seed's EXPERIMENTS.md; with -seeds it must be
	// refused up front, not silently replaced by a sweep table.
	out := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	if err := run(context.Background(), []string{"-report", "-seeds", "1..2", "-o", out}); err == nil ||
		!strings.Contains(err.Error(), "-report") || !strings.Contains(err.Error(), "-seeds") {
		t.Fatalf("-report with -seeds = %v, want a refusal naming both flags", err)
	}
	if _, err := os.Stat(out); err == nil {
		t.Fatal("-report -seeds wrote the report file")
	}
	if err := run(context.Background(), []string{"-run", "F3", "-stall", "-1s"}); err == nil {
		t.Fatal("negative -stall accepted")
	}
}

// TestRunFailureSummaryNamesIDs pins the exit contract: a run with a
// failing experiment exits non-zero with a one-line summary naming the
// failing IDs and why they failed.
func TestRunFailureSummaryNamesIDs(t *testing.T) {
	// X1 is the hidden spin self-test; unsupervised it refuses to start,
	// a deterministic error the summary must surface by ID.
	err := run(context.Background(), []string{"-run", "X1,F3"})
	if err == nil {
		t.Fatal("run with a failing experiment exited zero")
	}
	if !strings.Contains(err.Error(), "X1 (error)") || !strings.Contains(err.Error(), "did not complete") {
		t.Fatalf("failure summary does not name the failing ID: %v", err)
	}
	if strings.Contains(err.Error(), "F3") {
		t.Fatalf("failure summary names a passing experiment: %v", err)
	}

	// Under an armed watchdog X1 spins until reaped; the summary must
	// report it as aborted, and the healthy sibling still passes.
	err = run(context.Background(), []string{"-run", "X1,F3", "-stall", "100ms"})
	if err == nil || !strings.Contains(err.Error(), "X1 (aborted)") {
		t.Fatalf("supervised failure summary = %v, want X1 (aborted)", err)
	}
}

// TestSilentActivityJournalResumes: -activity none and the default mix
// produce byte-identical reports, so a journal recorded under one resumes
// under the other.
func TestSilentActivityJournalResumes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	none, def := filepath.Join(dir, "none.txt"), filepath.Join(dir, "default.txt")
	if err := run(context.Background(), []string{"-run", "F3", "-activity", "none", "-journal", path, "-o", none}); err != nil {
		t.Fatalf("journaled -activity none run: %v", err)
	}
	if err := run(context.Background(), []string{"-run", "F3", "-journal", path, "-resume", "-o", def}); err != nil {
		t.Fatalf("default-mix resume of an -activity none journal: %v", err)
	}
	a, _ := os.ReadFile(none)
	b, _ := os.ReadFile(def)
	if len(a) == 0 || string(a) != string(b) {
		t.Fatal("resumed report differs from the -activity none run")
	}
}
