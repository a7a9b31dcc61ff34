package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/runstats"
	"repro/internal/sim"
	"repro/internal/users"
)

// The supervision layer (DESIGN.md §13) makes long multi-experiment runs
// survivable: a vtime-stall watchdog riding the kernel Probe hook, per-
// experiment wall-clock deadlines, and graceful shutdown through context
// cancellation. Supervision lives entirely on the wall-clock plane: it
// may read probe samples and it may abort an experiment (sim.Kernel.
// CancelRun unwinds at a step boundary), but it never writes to a trace,
// a metrics registry, or any drift-gated artefact. An aborted
// experiment's report is marked partial and excluded from every
// determinism guarantee; sibling experiments' bytes are untouched
// because each owns its own world.

// Run is one experiment execution: its identity, the configuration tuple
// it runs under, and the supervision scope that owns every kernel its
// worlds build. The runner hands each experiment its own Run; worlds
// join it through WorldConfig.Run, which is how a deadline, a stall
// watchdog or a cancelled context reaches every kernel of the
// experiment — partitioned site shards included. A nil Run is a
// detached world under the default configuration; a Run built directly
// (no context) is an unsupervised one.
type Run struct {
	ID   string
	Seed uint64

	opt    RunOptions // the batch's configuration and supervision windows
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu      sync.Mutex
	kernels []*sim.Kernel
}

// faultProfile resolves the run's adversity profile by name, so the zero
// value means faults.DefaultProfile and an unknown name is an error, never
// a silently empty schedule.
func (r *Run) faultProfile() (faults.Profile, error) {
	if r == nil {
		return faults.Lookup("")
	}
	return faults.Lookup(r.opt.Faults)
}

// fleetMix resolves a fleet's Activity option against the run's default
// mix: an explicit option wins (users.MixNone forces silence even under a
// populated run); the zero value follows the run. Returns "" when no
// population should be attached.
func (r *Run) fleetMix(opt users.Mix) users.Mix {
	if opt == "" && r != nil {
		opt = r.opt.Activity
	}
	if opt == users.MixNone {
		return ""
	}
	return opt
}

// partitions is the worker width advancing the run's partitioned worlds.
func (r *Run) partitions() int {
	if r == nil || r.opt.Partitions < 1 {
		return 1
	}
	return r.opt.Partitions
}

// supervised reports whether a watchdog window or deadline is armed (the
// X1 spin self-test refuses to run without one).
func (r *Run) supervised() bool {
	return r != nil && (r.opt.Stall > 0 || r.opt.Deadline > 0)
}

// startRun opens the supervised run for (id, seed). Its context is the
// one way the run is aborted: it ends on the batch's shutdown, on the
// deadline's timer, or when a stall probe cancels it, and one AfterFunc
// fans the end out to every kernel the run has registered. The returned
// stop detaches that AfterFunc — waiting out a fan-out already under
// way — and releases the context and its timer, so nothing outlives the
// run.
func startRun(ctx context.Context, opt RunOptions, id string, seed uint64) (*Run, func()) {
	r := &Run{ID: id, Seed: seed, opt: opt}
	r.ctx, r.cancel = context.WithCancelCause(ctx)
	stopTimer := context.CancelFunc(func() {})
	if opt.Deadline > 0 {
		r.ctx, stopTimer = context.WithTimeoutCause(r.ctx, opt.Deadline,
			fmt.Errorf("%w: experiment %s over its %v wall budget", sim.ErrDeadline, id, opt.Deadline))
	}
	done := make(chan struct{})
	detach := context.AfterFunc(r.ctx, func() {
		defer close(done)
		r.abort()
	})
	return r, func() {
		if !detach() {
			<-done
		}
		stopTimer()
		r.cancel(nil)
	}
}

// cause is why the run's context ended: a stall or deadline cause as the
// supervisor set it, anything else a shutdown of the batch.
func (r *Run) cause() error {
	cause := context.Cause(r.ctx)
	if errors.Is(cause, sim.ErrStalled) || errors.Is(cause, sim.ErrDeadline) {
		return cause
	}
	return fmt.Errorf("run interrupted: %w", cause)
}

// abort counts the run's end into the wall-clock collector and cancels
// every kernel registered so far; register cancels any born later.
func (r *Run) abort() {
	cause := r.cause()
	if c := runstats.Active(); c != nil {
		switch {
		case errors.Is(cause, sim.ErrStalled):
			c.CountStall()
		case errors.Is(cause, sim.ErrDeadline):
			c.CountDeadline()
		}
		c.CountCancel()
	}
	for _, k := range r.kernelList() {
		k.CancelRun(cause)
	}
}

// register joins a freshly built kernel to the run (no-op for a detached
// world) and, when a stall window is armed, attaches its stall probe.
// Called from NewWorld for every world.
func (r *Run) register(k *sim.Kernel) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.kernels = append(r.kernels, k)
	r.mu.Unlock()
	if r.ctx == nil {
		return // built directly, outside any batch: unsupervised
	}
	if r.ctx.Err() != nil {
		// A kernel born into an already-ended run (deadline or shutdown
		// hit before or between world builds) aborts on its first step,
		// with the run's own cause.
		k.CancelRun(r.cause())
	}
	if r.opt.Stall > 0 {
		k.AttachProbe(&stallWatch{run: r}, 0)
	}
}

// kernelList snapshots the run's kernels.
func (r *Run) kernelList() []*sim.Kernel {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*sim.Kernel(nil), r.kernels...)
}

// stallWatch is one kernel's vtime-stall probe. It runs on the kernel's
// own goroutine, so its state needs no synchronisation. A kernel is
// stalled when it has executed events since its virtual clock last
// advanced and that advance is more than the window ago; the probe then
// cancels the run. A kernel that is simply idle (no steps — e.g. the
// experiment is doing CPU work between runs) is never sampled, so it is
// never flagged; a handler that blocks forever inside one event cannot
// be unwound at a step boundary at all and is left to the deadline or
// shutdown to report.
type stallWatch struct {
	run          *Run
	sampled      bool
	vtime        time.Time // last sampled vtime that advanced
	advanceWall  time.Time // wall clock at that advance
	advanceSteps uint64    // step count at that advance
}

// KernelSample implements sim.Probe.
func (w *stallWatch) KernelSample(s sim.Sample) {
	now := time.Now()
	if !w.sampled || s.VNow.After(w.vtime) {
		w.sampled, w.vtime, w.advanceWall, w.advanceSteps = true, s.VNow, now, s.Steps
		return
	}
	if s.Steps > w.advanceSteps && now.Sub(w.advanceWall) > w.run.opt.Stall {
		w.run.cancel(fmt.Errorf("%w: experiment %s executed events for %v of wall clock without advancing vtime",
			sim.ErrStalled, w.run.ID, w.run.opt.Stall))
	}
}
