package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/users"
)

// runOne runs one experiment alone under opt: a one-entry batch, on the
// same path every RunExperimentsOpts call takes.
func runOne(id string, seed uint64, opt RunOptions) RunReport {
	return RunExperimentsOpts(context.Background(), []string{id}, seed, opt)[0]
}

// payloadBytes canonically serialises a report's result, so two runs can
// be compared byte-for-byte (the same encoding the journal persists).
func payloadBytes(t *testing.T, rep RunReport) []byte {
	t.Helper()
	if rep.Err != nil {
		t.Fatalf("%s: %v", rep.ID, rep.Err)
	}
	b, err := encodeResultPayload(rep.Result)
	if err != nil {
		t.Fatalf("%s: encode: %v", rep.ID, err)
	}
	return b
}

// TestWatchdogReapsX1Spin is the acceptance gate for the vtime-stall
// watchdog: the synthetic spin experiment freezes the virtual clock
// forever, and the supervisor must reap it with a stall diagnostic and
// a balanced event pool.
func TestWatchdogReapsX1Spin(t *testing.T) {
	rep := runOne("X1", 1, RunOptions{Stall: 60 * time.Millisecond})
	if !rep.Partial {
		t.Fatalf("X1 was not reaped: err=%v", rep.Err)
	}
	if !errors.Is(rep.Err, sim.ErrStalled) {
		t.Fatalf("X1 abort cause = %v, want ErrStalled", rep.Err)
	}
	if !strings.Contains(rep.Err.Error(), "vtime") {
		t.Fatalf("abort error carries no diagnostic: %v", rep.Err)
	}
	if strings.Contains(rep.Err.Error(), "pool leaked") {
		t.Fatalf("abort leaked pooled events: %v", rep.Err)
	}
}

// TestX1RefusesUnsupervised: without an armed supervisor the spin
// self-test must refuse to start rather than hang the process.
func TestX1RefusesUnsupervised(t *testing.T) {
	rep := runOne("X1", 1, RunOptions{})
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "arm the supervisor") {
		t.Fatalf("unsupervised X1 = %v, want an arm-the-supervisor refusal", rep.Err)
	}
	if rep.Partial {
		t.Fatal("refusal must not be a partial report")
	}
}

// TestWatchdogDoesNotDisturbSiblings is the second acceptance gate: a
// reaped experiment must leave sibling experiments' output bytes
// untouched, even when they share a worker pool with the spinner.
func TestWatchdogDoesNotDisturbSiblings(t *testing.T) {
	ids := []string{"F3", "C1"}
	baseline := RunExperiments(ids, 1, 1)
	want := [][]byte{payloadBytes(t, baseline[0]), payloadBytes(t, baseline[1])}

	reports := RunExperimentsOpts(context.Background(), []string{"F3", "X1", "C1"}, 1,
		RunOptions{Workers: 2, Stall: 80 * time.Millisecond})
	if !reports[1].Partial || !errors.Is(reports[1].Err, sim.ErrStalled) {
		t.Fatalf("X1 not reaped in the pool: %+v", reports[1].Err)
	}
	for i, ri := range []int{0, 2} {
		got := payloadBytes(t, reports[ri])
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("sibling %s bytes changed when X1 was reaped next to it", reports[ri].ID)
		}
	}
}

// registerTempExperiment installs a runner under a test-only ID and
// returns its cleanup.
func registerTempExperiment(t *testing.T, id string, r Runner) {
	t.Helper()
	Experiments[id] = r
	t.Cleanup(func() { delete(Experiments, id) })
}

// TestDeadlineAbortsLongExperiment: an experiment whose vtime advances
// happily (so the stall watchdog stays quiet) but whose wall clock
// exceeds the per-experiment deadline is aborted with ErrDeadline.
func TestDeadlineAbortsLongExperiment(t *testing.T) {
	registerTempExperiment(t, "ZZ-wall", func(run *Run) (*Result, error) {
		w, err := NewWorld(WorldConfig{Run: run, Seed: run.Seed, MuteTrace: true})
		if err != nil {
			return nil, err
		}
		for i := 0; i < 20_000; i++ {
			w.K.Schedule(time.Duration(i+1)*time.Second, "slow", func() {
				time.Sleep(500 * time.Microsecond)
			})
		}
		if err := w.K.RunFor(30_000 * time.Second); err != nil {
			return nil, err
		}
		return nil, errors.New("ZZ-wall ran to completion under a deadline that should have reaped it")
	})
	rep := runOne("ZZ-wall", 1, RunOptions{Deadline: 60 * time.Millisecond})
	if !rep.Partial || !errors.Is(rep.Err, sim.ErrDeadline) {
		t.Fatalf("deadline report = partial=%v err=%v, want partial ErrDeadline", rep.Partial, rep.Err)
	}
	if strings.Contains(rep.Err.Error(), "pool leaked") {
		t.Fatalf("deadline abort leaked pooled events: %v", rep.Err)
	}
}

// TestShutdownCancelsInFlightAndSkipsQueued: cancelling the batch's
// context aborts the running experiment at its next step boundary, with
// a balanced event pool, and skips everything not yet started.
func TestShutdownCancelsInFlightAndSkipsQueued(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	started := make(chan struct{})
	var once sync.Once
	registerTempExperiment(t, "ZZ-interrupt", func(run *Run) (*Result, error) {
		w, err := NewWorld(WorldConfig{Run: run, Seed: run.Seed, MuteTrace: true})
		if err != nil {
			return nil, err
		}
		for i := 0; i < 20_000; i++ {
			w.K.Schedule(time.Duration(i+1)*time.Second, "tick", func() {
				once.Do(func() { close(started) })
				time.Sleep(500 * time.Microsecond)
			})
		}
		if err := w.K.RunFor(30_000 * time.Second); err != nil {
			return nil, err
		}
		return nil, errors.New("ZZ-interrupt survived the shutdown")
	})
	go func() {
		<-started
		cancel(errors.New("test interrupt"))
	}()
	reports := RunExperimentsOpts(ctx, []string{"ZZ-interrupt", "F3"}, 1, RunOptions{Workers: 1})
	if !reports[0].Partial || !strings.Contains(reports[0].Err.Error(), "test interrupt") {
		t.Fatalf("in-flight report = partial=%v err=%v, want aborted by the interrupt", reports[0].Partial, reports[0].Err)
	}
	if strings.Contains(reports[0].Err.Error(), "pool leaked") {
		t.Fatalf("interrupted run leaked pooled events: %v", reports[0].Err)
	}
	if !reports[1].Skipped || !strings.Contains(reports[1].Err.Error(), "test interrupt") {
		t.Fatalf("queued report = skipped=%v err=%v, want skipped", reports[1].Skipped, reports[1].Err)
	}
	if context.Cause(ctx) == nil {
		t.Fatal("shutdown cause lost")
	}
}

// TestSupervisionLeavesOutputBytesUnchanged pins the plane separation:
// arming the supervisor (probes attached, sweeper polling) must not
// change a healthy experiment's deterministic bytes.
func TestSupervisionLeavesOutputBytesUnchanged(t *testing.T) {
	want := payloadBytes(t, runOne("F3", 1, RunOptions{}))
	got := payloadBytes(t, runOne("F3", 1, RunOptions{Stall: 5 * time.Second, Deadline: time.Hour}))
	if !bytes.Equal(got, want) {
		t.Fatal("arming supervision changed F3's output bytes")
	}
}

// payloads serialises every report of a batch.
func payloads(t *testing.T, reports []RunReport) [][]byte {
	t.Helper()
	out := make([][]byte, len(reports))
	for i, rep := range reports {
		out[i] = payloadBytes(t, rep)
	}
	return out
}

// TestRunContextConcurrentConfigs is the capability the explicit run
// context exists for: two batches under different configurations run at
// once in one process — the R-series under chaos next to the same series
// without faults in an office-populated fleet (R3's Aramco fleet leaves
// Activity unset, so it follows the run) — and each batch is
// byte-identical to the same batch run alone.
func TestRunContextConcurrentConfigs(t *testing.T) {
	ids := []string{"R1", "R2", "R3", "R4", "R5"}
	chaos := RunOptions{Workers: 2, Faults: "chaos"}
	quiet := RunOptions{Workers: 2, Faults: "none", Activity: users.MixOffice}
	batch := func(ids []string, opt RunOptions) []RunReport {
		return RunExperimentsOpts(context.Background(), ids, 1, opt)
	}
	wantChaos := payloads(t, batch(ids, chaos))
	wantQuiet := payloads(t, batch(ids, quiet))
	if bytes.Equal(wantChaos[0], wantQuiet[0]) {
		t.Fatal("R1 bytes are the same under chaos and none; the profile never reached the run")
	}
	if silent := payloads(t, batch(ids[2:3], RunOptions{Faults: "none"})); bytes.Equal(silent[0], wantQuiet[2]) {
		t.Fatal("R3 bytes are the same silent and under office; the mix never reached the fleet")
	}

	var chaosReps, quietReps []RunReport
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); chaosReps = batch(ids, chaos) }()
	go func() { defer wg.Done(); quietReps = batch(ids, quiet) }()
	wg.Wait()
	gotChaos, gotQuiet := payloads(t, chaosReps), payloads(t, quietReps)
	for i, id := range ids {
		if !bytes.Equal(gotChaos[i], wantChaos[i]) {
			t.Fatalf("%s under chaos changed when a second configuration ran beside it", id)
		}
		if !bytes.Equal(gotQuiet[i], wantQuiet[i]) {
			t.Fatalf("%s under none/office changed when a second configuration ran beside it", id)
		}
	}
}

// TestRunContextCancelLeavesSiblingBatch: cancelling one batch's context
// aborts its in-flight run (pool ledger balanced) and skips its queued
// ones, while a batch running beside it on a live context completes
// byte-identically.
func TestRunContextCancelLeavesSiblingBatch(t *testing.T) {
	ids := []string{"F3", "C1"}
	want := payloads(t, RunExperiments(ids, 1, 1))

	started := make(chan struct{})
	var once sync.Once
	registerTempExperiment(t, "ZZ-interrupt", func(run *Run) (*Result, error) {
		w, err := NewWorld(WorldConfig{Run: run, Seed: run.Seed, MuteTrace: true})
		if err != nil {
			return nil, err
		}
		for i := 0; i < 20_000; i++ {
			w.K.Schedule(time.Duration(i+1)*time.Second, "tick", func() {
				once.Do(func() { close(started) })
				time.Sleep(500 * time.Microsecond)
			})
		}
		if err := w.K.RunFor(30_000 * time.Second); err != nil {
			return nil, err
		}
		return nil, errors.New("ZZ-interrupt survived the cancellation")
	})
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	var cancelled []RunReport
	done := make(chan struct{})
	go func() {
		defer close(done)
		cancelled = RunExperimentsOpts(ctx, []string{"ZZ-interrupt", "F3", "C1"}, 1, RunOptions{Workers: 1})
	}()
	<-started
	var siblingReps []RunReport
	sibling := make(chan struct{})
	go func() { defer close(sibling); siblingReps = RunExperiments(ids, 1, 2) }()
	cancel(errors.New("batch cancelled"))
	<-done
	<-sibling
	got := payloads(t, siblingReps)

	if rep := cancelled[0]; !rep.Partial || !strings.Contains(rep.Err.Error(), "batch cancelled") ||
		strings.Contains(rep.Err.Error(), "pool leaked") {
		t.Fatalf("in-flight report = partial=%v err=%v, want a clean abort by the cancellation", rep.Partial, rep.Err)
	}
	for _, rep := range cancelled[1:] {
		if !rep.Skipped || !strings.Contains(rep.Err.Error(), "batch cancelled") {
			t.Fatalf("queued %s = skipped=%v err=%v, want skipped", rep.ID, rep.Skipped, rep.Err)
		}
	}
	for i, id := range ids {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("sibling %s bytes changed when another batch was cancelled", id)
		}
	}
}

// TestSweepSeedsUnderSupervision: a seed sweep builds its runs exactly
// like RunExperimentsOpts, so the batch's stall window reaches every
// (experiment, seed) run — X1 is reaped at each seed instead of refusing
// to start.
func TestSweepSeedsUnderSupervision(t *testing.T) {
	entries := SweepSeeds(context.Background(), []string{"X1"}, []uint64{1, 2}, RunOptions{Workers: 2, Stall: 60 * time.Millisecond})
	if len(entries) != 1 || len(entries[0].Errors) != 2 {
		t.Fatalf("sweep entries = %+v, want one entry with two aborted seeds", entries)
	}
	for _, err := range entries[0].Errors {
		if !errors.Is(err, sim.ErrStalled) {
			t.Fatalf("sweep seed error = %v, want a stall abort", err)
		}
	}
}
