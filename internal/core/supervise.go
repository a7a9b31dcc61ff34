package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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
// detached world under the default configuration.
type Run struct {
	ID   string
	Seed uint64

	opt     RunOptions // the batch's configuration and supervision windows
	started time.Time
	stop    func() bool // detaches the context.AfterFunc cancel, if any

	mu        sync.Mutex
	kernels   []*sim.Kernel
	watches   []*kernelWatch
	cancelled bool
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
	return r != nil && r.opt.armed()
}

// register joins a freshly built kernel to the run (no-op for a detached
// world) and, when a stall window is armed, attaches its sampling watch
// to the kernel's probe chain. Called from NewWorld for every world.
func (r *Run) register(k *sim.Kernel) {
	if r == nil {
		return
	}
	var w *kernelWatch
	if r.opt.Stall > 0 {
		w = &kernelWatch{}
		w.reset()
	}
	r.mu.Lock()
	r.kernels = append(r.kernels, k)
	if w != nil {
		r.watches = append(r.watches, w)
	}
	cancelled := r.cancelled
	r.mu.Unlock()
	if cancelled {
		// A kernel born into an already-cancelled run (deadline or
		// shutdown hit during a later world build) aborts on its first
		// step.
		k.CancelRun(sim.ErrCancelled)
	}
	if w != nil {
		k.AttachProbe(w, 0)
	}
}

// cancel requests cancellation of every kernel in the run, once. Reports
// whether this call armed the cancellation.
func (r *Run) cancel(cause error) bool {
	r.mu.Lock()
	if r.cancelled {
		r.mu.Unlock()
		return false
	}
	r.cancelled = true
	kernels := append([]*sim.Kernel(nil), r.kernels...)
	r.mu.Unlock()
	for _, k := range kernels {
		k.CancelRun(cause)
	}
	return true
}

func (r *Run) watchList() []*kernelWatch {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*kernelWatch(nil), r.watches...)
}

// kernelList snapshots the run's kernels (used by the abort path's
// pool-balance self-check, on the experiment's own goroutine).
func (r *Run) kernelList() []*sim.Kernel {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*sim.Kernel(nil), r.kernels...)
}

// --- the batch: one RunExperimentsOpts or SweepSeeds call ---

// batch is one call's worth of runs: the options they share, the context
// that winds them down, and — only when a stall window or deadline is
// armed — the open runs its sweeper goroutine polls.
type batch struct {
	ctx context.Context
	opt RunOptions

	mu   sync.Mutex
	open map[*Run]struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// startBatch opens a batch and, when a window is armed, starts its
// sweeper. Callers must stop it.
func startBatch(ctx context.Context, opt RunOptions) *batch {
	b := &batch{ctx: ctx, opt: opt}
	if opt.armed() {
		b.open = make(map[*Run]struct{})
		b.done = make(chan struct{})
		b.wg.Add(1)
		go b.loop()
	}
	return b
}

// stop ends the sweeper, if any, and waits for it to exit.
func (b *batch) stop() {
	if b.done != nil {
		close(b.done)
		b.wg.Wait()
	}
}

// begin creates a run for (id, seed) and opens it to the sweeper and to
// context cancellation; end closes it.
func (b *batch) begin(id string, seed uint64) *Run {
	r := &Run{ID: id, Seed: seed, opt: b.opt, started: time.Now()}
	if b.ctx.Done() != nil {
		r.stop = context.AfterFunc(b.ctx, func() {
			if r.cancel(fmt.Errorf("run interrupted: %w", context.Cause(b.ctx))) {
				if c := runstats.Active(); c != nil {
					c.CountCancel()
				}
			}
		})
	}
	if b.open != nil {
		b.mu.Lock()
		b.open[r] = struct{}{}
		b.mu.Unlock()
	}
	return r
}

func (b *batch) end(r *Run) {
	if r.stop != nil {
		r.stop()
	}
	if b.open != nil {
		b.mu.Lock()
		delete(b.open, r)
		b.mu.Unlock()
	}
}

// sweepEvery bounds the watchdog's polling cadence: a quarter of the
// tightest armed window, clamped to [5ms, 250ms].
func (b *batch) sweepEvery() time.Duration {
	tight := b.opt.Stall
	if tight == 0 || (b.opt.Deadline > 0 && b.opt.Deadline < tight) {
		tight = b.opt.Deadline
	}
	return min(max(tight/4, 5*time.Millisecond), 250*time.Millisecond)
}

func (b *batch) loop() {
	defer b.wg.Done()
	t := time.NewTicker(b.sweepEvery())
	defer t.Stop()
	for {
		select {
		case <-b.done:
			return
		case now := <-t.C:
			b.sweep(now)
		}
	}
}

// sweep checks every open run against the armed deadline and stall
// window.
func (b *batch) sweep(now time.Time) {
	b.mu.Lock()
	runs := make([]*Run, 0, len(b.open))
	for r := range b.open {
		runs = append(runs, r)
	}
	b.mu.Unlock()
	for _, r := range runs {
		if b.opt.Deadline > 0 && now.Sub(r.started) > b.opt.Deadline {
			if r.cancel(fmt.Errorf("%w: experiment %s over its %v wall budget",
				sim.ErrDeadline, r.ID, b.opt.Deadline)) {
				if c := runstats.Active(); c != nil {
					c.CountDeadline()
					c.CountCancel()
				}
			}
			continue
		}
		for _, w := range r.watchList() {
			if w.stalled(now, b.opt.Stall) {
				if r.cancel(fmt.Errorf("%w: experiment %s executed events for %v of wall clock without advancing vtime",
					sim.ErrStalled, r.ID, b.opt.Stall)) {
					if c := runstats.Active(); c != nil {
						c.CountStall()
						c.CountCancel()
					}
				}
				break
			}
		}
	}
}

// kernelWatch is the watchdog's view of one kernel, fed by probe
// samples on the kernel goroutine and read by the sweep goroutine.
// All fields are atomics; the probe path must not block.
type kernelWatch struct {
	sampled      atomic.Bool
	vtime        atomic.Int64  // last sampled vtime (ns since epoch)
	steps        atomic.Uint64 // last sampled step count
	advanceWall  atomic.Int64  // wall ns when vtime last advanced
	advanceSteps atomic.Uint64 // step count at that advance
}

func (w *kernelWatch) reset() { w.advanceWall.Store(time.Now().UnixNano()) }

// KernelSample implements sim.Probe.
func (w *kernelWatch) KernelSample(s sim.Sample) {
	vt := s.VNow.UnixNano()
	if !w.sampled.Load() || vt > w.vtime.Load() {
		w.vtime.Store(vt)
		w.advanceWall.Store(time.Now().UnixNano())
		w.advanceSteps.Store(s.Steps)
		w.sampled.Store(true)
	}
	w.steps.Store(s.Steps)
}

// stalled reports a vtime stall: the kernel has executed events since
// its virtual clock last advanced, and that advance is more than the
// window ago. A kernel that is simply idle (no steps — e.g. the
// experiment is doing CPU work between runs) is never flagged, because
// a cancel could then false-positive on healthy experiments; a handler
// that blocks forever inside one event cannot be unwound at a step
// boundary at all and is left to the deadline/shutdown path to report.
func (w *kernelWatch) stalled(now time.Time, window time.Duration) bool {
	if !w.sampled.Load() {
		return false
	}
	if w.steps.Load() <= w.advanceSteps.Load() {
		return false
	}
	return now.UnixNano()-w.advanceWall.Load() > window.Nanoseconds()
}
