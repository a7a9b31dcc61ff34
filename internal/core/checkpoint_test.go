package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/users"
)

// checkpointBoundary picks a vtime strictly inside an experiment's
// event stream, so the checkpoint has both a prefix and a tail.
func checkpointBoundary(t *testing.T, id string, opt RunOptions) time.Time {
	t.Helper()
	rep := runOne(id, 1, opt)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	events := rep.Result.Events
	if len(events) < 4 {
		t.Fatalf("%s retains only %d events; too few to split", id, len(events))
	}
	return events[len(events)/2].At
}

// TestCheckpointForkRoundTrip: capture a checkpoint mid-run, fork from
// it, and get back exactly the tail past the boundary — the verified
// prefix is muted out of the restored result.
func TestCheckpointForkRoundTrip(t *testing.T) {
	at := checkpointBoundary(t, "C1", RunOptions{})
	cp, err := CaptureCheckpoint(context.Background(), "C1", 1, at, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cp.PrefixLen == 0 || cp.PrefixLen >= cp.TotalLen {
		t.Fatalf("degenerate checkpoint: prefix %d of %d events", cp.PrefixLen, cp.TotalLen)
	}
	fr, err := Fork(context.Background(), cp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fr.TailEvents != cp.TotalLen-cp.PrefixLen {
		t.Fatalf("fork tail = %d events, want %d", fr.TailEvents, cp.TotalLen-cp.PrefixLen)
	}
	for _, e := range fr.Result.Events {
		if !e.At.After(cp.VTime) {
			t.Fatalf("fork leaked a prefix event at %v (checkpoint %v)", e.At, cp.VTime)
		}
	}
}

// TestForkRefusesHashDrift: a checkpoint whose recorded prefix hash no
// longer matches the replay means the code or configuration changed —
// the fork must refuse, not silently diverge.
func TestForkRefusesHashDrift(t *testing.T) {
	cp, err := CaptureCheckpoint(context.Background(), "C1", 1, checkpointBoundary(t, "C1", RunOptions{}), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cp.PrefixHash = strings.Repeat("0", len(cp.PrefixHash))
	if _, err := Fork(context.Background(), cp, 1); err == nil || !strings.Contains(err.Error(), "drift") {
		t.Fatalf("hash-drifted fork = %v, want a drift refusal", err)
	}
}

// TestForkRefusesConfigMismatch: Fork replays the checkpoint's own fault
// profile — a chaos capture forks cleanly with no process-wide setting —
// and a tuple edited to another profile, or to an unknown one, is
// refused rather than silently replayed.
func TestForkRefusesConfigMismatch(t *testing.T) {
	chaos := RunOptions{Faults: "chaos"}
	cp, err := CaptureCheckpoint(context.Background(), "R2", 1, checkpointBoundary(t, "R2", chaos), chaos)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Faults != "chaos" {
		t.Fatalf("checkpoint recorded fault profile %q, want chaos", cp.Faults)
	}
	if _, err := Fork(context.Background(), cp, 1); err != nil {
		t.Fatalf("fork of a chaos checkpoint: %v", err)
	}
	edited := *cp
	edited.Faults = "takedown"
	if _, err := Fork(context.Background(), &edited, 1); err == nil || !strings.Contains(err.Error(), "drift") {
		t.Fatalf("profile-edited fork = %v, want a drift refusal", err)
	}
	edited.Faults = "bogus"
	if _, err := Fork(context.Background(), &edited, 1); err == nil || !strings.Contains(err.Error(), "unknown profile") {
		t.Fatalf("unknown-profile fork = %v, want a refusal", err)
	}
}

// TestCheckpointSilentMixCanonical: "none" and the default mix are the
// same silent fleet, so a capture under either records the same tuple,
// and a checkpoint file that still says "none" forks cleanly.
func TestCheckpointSilentMixCanonical(t *testing.T) {
	at := checkpointBoundary(t, "R3", RunOptions{})
	def, err := CaptureCheckpoint(context.Background(), "R3", 1, at, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	none, err := CaptureCheckpoint(context.Background(), "R3", 1, at, RunOptions{Activity: users.MixNone})
	if err != nil {
		t.Fatal(err)
	}
	if *none != *def {
		t.Fatalf("-activity none checkpoint differs from the default:\n got %+v\nwant %+v", none, def)
	}
	legacy := *def
	legacy.Activity = string(users.MixNone)
	if _, err := Fork(context.Background(), &legacy, 1); err != nil {
		t.Fatalf("fork of a checkpoint recorded as activity=none: %v", err)
	}
}

// TestCheckpointFileRoundTrip: checkpoints survive the write/read cycle
// byte-for-byte in their verified fields.
func TestCheckpointFileRoundTrip(t *testing.T) {
	cp, err := CaptureCheckpoint(context.Background(), "C1", 1, checkpointBoundary(t, "C1", RunOptions{}), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "f3.checkpoint")
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *cp {
		t.Fatalf("checkpoint round trip drifted:\n got %+v\nwant %+v", got, cp)
	}
}
