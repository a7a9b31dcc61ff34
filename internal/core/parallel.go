package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runstats"
	"repro/internal/sim"
	"repro/internal/users"
)

// The parallel experiment runner. Every experiment builds its own World —
// its own kernel, RNG, internet, PKI and hosts — and never touches
// another world's state, so experiments are embarrassingly parallel
// across worker goroutines. The only shared data a worker reads is the
// immutable Experiments registry and package-level constants; the run
// configuration arrives in each experiment's own *Run. Reports always
// come back in input order, so rendered output is byte-identical no
// matter how many workers ran.

// RunReport is the outcome of one experiment execution inside the
// parallel runner.
type RunReport struct {
	ID     string
	Seed   uint64
	Result *Result // nil when Err != nil
	Err    error
	Wall   time.Duration

	// Partial marks an experiment aborted mid-run by the supervision
	// layer (stall watchdog, deadline, or graceful shutdown); Err carries
	// the cause and the kernel diagnostic.
	Partial bool
	// Skipped marks an experiment that never started because its batch's
	// context was already cancelled when a worker picked it up.
	Skipped bool
	// FromJournal marks a report replayed from a resume journal instead
	// of executed.
	FromJournal bool
}

// runPool executes run(0..n-1) across at most workers goroutines.
// workers <= 1 degenerates to a plain sequential loop on the caller's
// goroutine.
func runPool(n, workers int, run func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// runOne executes a single experiment, converting panics into errors so
// one broken experiment can never truncate a sweep report. The
// experiment gets its own Run: the kernels its worlds build register
// with it, a supervisor abort or a cancelled context unwinds here as a
// *sim.Cancelled and becomes a partial report, and a context cancelled
// before the start skips the experiment outright. When a wall-clock
// collector is active it gets the experiment's wall time and pass/fail —
// telemetry that stays on the nondeterministic plane (the deterministic
// Result never carries wall data).
func (b *batch) runOne(id string, seed uint64) (rep RunReport) {
	rep = RunReport{ID: id, Seed: seed}
	if cause := context.Cause(b.ctx); cause != nil {
		rep.Skipped = true
		rep.Err = fmt.Errorf("experiment %s: skipped: %v", id, cause)
		return rep
	}
	runner, ok := Experiments[id]
	if !ok {
		rep.Err = fmt.Errorf("experiment %s: unknown ID", id)
		return rep
	}
	run := b.begin(id, seed)
	defer func() {
		b.end(run)
		if r := recover(); r != nil {
			rep.Result = nil
			rep.Wall = time.Since(run.started)
			if c, isCancel := sim.AsCancelled(r); isCancel {
				rep.Partial = true
				rep.Err = fmt.Errorf("experiment %s: aborted: %w", id, c)
				if leak := poolLeaks(run); leak != "" {
					rep.Err = fmt.Errorf("%w; %s", rep.Err, leak)
				}
			} else {
				rep.Err = fmt.Errorf("experiment %s: panic: %v", id, r)
			}
		}
		if c := runstats.Active(); c != nil {
			c.RecordExperiment(id, seed, rep.Wall,
				rep.Err == nil && rep.Result != nil && rep.Result.Pass)
		}
	}()
	defer runstats.Phase("run")()
	rep.Result, rep.Err = runner(run)
	rep.Wall = time.Since(run.started)
	if rep.Err != nil {
		rep.Err = fmt.Errorf("experiment %s: %w", id, rep.Err)
	} else {
		rep.Result.attachProvenance()
	}
	return rep
}

// poolLeaks audits the event-pool ledger of every kernel an aborted
// experiment built: allocations must equal releases plus events still
// sitting in a queue (the aborted kernel drained its own queue; sibling
// kernels of a multi-world experiment may legitimately still hold
// scheduled events). Returns "" when the ledgers balance.
func poolLeaks(run *Run) string {
	var leaked uint64
	var bad int
	for _, k := range run.kernelList() {
		ps := k.PoolStats()
		gets := ps.Hits + ps.Misses
		accounted := ps.Puts + uint64(k.Pending())
		if gets > accounted {
			leaked += gets - accounted
			bad++
		}
	}
	if leaked == 0 {
		return ""
	}
	return fmt.Sprintf("event pool leaked %d events across %d kernels", leaked, bad)
}

// RunOptions is everything a caller can set about a batch of runs. The
// zero value is the default configuration: the faults.DefaultProfile
// adversity schedule, silent fleets, one partition worker, no
// supervision, no journal.
type RunOptions struct {
	// Workers sizes the pool (<=1 is sequential).
	Workers int
	// Journal, when set, serves already-journaled (experiment, seed)
	// outcomes without re-running them and records fresh completions
	// (fsync'd per record) for the next resume.
	Journal *Journal

	// Faults names the adversity profile the R-series runs under
	// ("" = faults.DefaultProfile).
	Faults string
	// Activity is the benign user-activity mix for fleets whose options
	// leave Activity unset ("" or users.MixNone = silent).
	Activity users.Mix
	// Partitions is the worker width advancing partitioned worlds (<= 1
	// is one worker). It never changes output bytes, so unlike Faults
	// and Activity it is not part of the journal's configuration tuple.
	Partitions int

	// Stall is the vtime-stall watchdog window: an experiment kernel
	// that keeps executing events while its virtual clock stays frozen
	// for longer than this wall-clock window is aborted. 0 disarms.
	Stall time.Duration
	// Deadline is the per-experiment wall-clock budget, measured from
	// the experiment's start; exceeding it aborts the experiment at its
	// next step boundary. 0 disarms.
	Deadline time.Duration
}

func (o RunOptions) armed() bool { return o.Stall > 0 || o.Deadline > 0 }

// runBatch executes every (experiment, seed) pair, experiment-major,
// across one worker pool under opt; each report lands in its fixed slot.
// Cancelling ctx skips pairs not yet started and aborts in-flight ones
// with context.Cause(ctx); their reports come back Skipped or Partial.
// With a journal, already-journaled pairs are served without running and
// fresh outcomes are recorded for the next resume.
// dropEvents discards each result's trace as it lands (a sweep only
// needs aggregates; retaining every seed's trace would hold one ring
// buffer per pair in memory).
func runBatch(ctx context.Context, ids []string, seeds []uint64, opt RunOptions, dropEvents bool) []RunReport {
	reports := make([]RunReport, len(ids)*len(seeds))
	if c := runstats.Active(); c != nil {
		c.SetTotalExperiments(len(reports))
	}
	b := startBatch(ctx, opt)
	defer b.stop()
	runPool(len(reports), opt.Workers, func(i int) {
		id, seed := ids[i/len(seeds)], seeds[i%len(seeds)]
		rep, served := opt.Journal.Lookup(id, seed)
		if served {
			if c := runstats.Active(); c != nil {
				c.CountJournalServed()
			}
		} else {
			rep = b.runOne(id, seed)
			opt.Journal.Record(rep)
		}
		if rep.Result != nil && dropEvents {
			rep.Result.Events = nil
		}
		reports[i] = rep
	})
	return reports
}

// RunExperiments executes the given experiment IDs with one seed across a
// pool of workers, returning reports in input order regardless of worker
// count. Unknown IDs and experiment failures become per-report errors;
// the remaining experiments still run.
func RunExperiments(ids []string, seed uint64, workers int) []RunReport {
	return RunExperimentsOpts(context.Background(), ids, seed, RunOptions{Workers: workers})
}

// RunExperimentsOpts is RunExperiments with the full option set and a
// context whose cancellation winds the run down gracefully.
func RunExperimentsOpts(ctx context.Context, ids []string, seed uint64, opt RunOptions) []RunReport {
	return runBatch(ctx, ids, []uint64{seed}, opt, false)
}

// RunAllParallel executes every registered experiment with the same seed
// across a pool of workers. Reports come back in report order.
func RunAllParallel(seed uint64, workers int) []RunReport {
	return RunExperiments(ExperimentIDs(), seed, workers)
}

// --- Multi-seed Monte Carlo sweep ---

// MetricStat aggregates one metric across the seeds of a sweep.
type MetricStat struct {
	Name string
	Unit string
	Min  float64
	Mean float64
	Max  float64
}

// SweepEntry aggregates one experiment across every seed of a sweep.
type SweepEntry struct {
	ID      string
	Title   string
	Seeds   int           // runs attempted (one per seed)
	Passes  int           // runs whose result reproduced
	Errors  []error       // per-seed runner errors, seed order
	Metrics []MetricStat  // first-seen metric order
	Wall    time.Duration // summed wall clock across seeds
	// Obs merges the experiment's registry snapshots across every seed
	// (counter sums grow with the seed count; gauges keep the last fold).
	Obs obs.Snapshot
}

// SweepSeeds runs every (experiment, seed) pair across one worker pool,
// on the same per-experiment path and options as RunExperimentsOpts, and
// aggregates per-metric min/mean/max across seeds. Entries come back in
// the order of ids and the aggregation is deterministic regardless of
// worker count, because per-pair reports land in a fixed slot before
// anything is folded.
func SweepSeeds(ctx context.Context, ids []string, seeds []uint64, opt RunOptions) []SweepEntry {
	if len(ids) == 0 || len(seeds) == 0 {
		return nil
	}
	reports := runBatch(ctx, ids, seeds, opt, true)

	entries := make([]SweepEntry, len(ids))
	for ei, id := range ids {
		e := SweepEntry{ID: id}
		var order []string
		type agg struct {
			unit          string
			min, max, sum float64
			n             int
		}
		stats := make(map[string]*agg)
		for si := range seeds {
			rep := reports[ei*len(seeds)+si]
			e.Seeds++
			e.Wall += rep.Wall
			if rep.Err != nil {
				e.Errors = append(e.Errors, rep.Err)
				continue
			}
			if e.Title == "" {
				e.Title = rep.Result.Title
			}
			if rep.Result.Pass {
				e.Passes++
			}
			e.Obs.Merge(rep.Result.Obs)
			for _, m := range rep.Result.Metrics {
				a, ok := stats[m.Name]
				if !ok {
					a = &agg{unit: m.Unit, min: m.Value, max: m.Value}
					stats[m.Name] = a
					order = append(order, m.Name)
				}
				if m.Value < a.min {
					a.min = m.Value
				}
				if m.Value > a.max {
					a.max = m.Value
				}
				a.sum += m.Value
				a.n++
			}
		}
		for _, name := range order {
			a := stats[name]
			e.Metrics = append(e.Metrics, MetricStat{
				Name: name, Unit: a.unit,
				Min: a.min, Mean: a.sum / float64(a.n), Max: a.max,
			})
		}
		entries[ei] = e
	}
	return entries
}

// RenderSweep formats a sweep's aggregate table, mirroring Result.Render.
func RenderSweep(entries []SweepEntry) string {
	var b strings.Builder
	for _, e := range entries {
		title := e.Title
		if title == "" {
			title = "(no successful run)"
		}
		fmt.Fprintf(&b, "[%s] %s — %d/%d seeds reproduced\n", e.ID, title, e.Passes, e.Seeds)
		for _, m := range e.Metrics {
			unit := m.Unit
			if unit != "" {
				unit = " " + unit
			}
			fmt.Fprintf(&b, "  %-38s min %14.4g  mean %14.4g  max %14.4g%s\n",
				m.Name, m.Min, m.Mean, m.Max, unit)
		}
		for _, err := range e.Errors {
			fmt.Fprintf(&b, "  error: %v\n", err)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// JoinErrors folds every per-report error into one, or nil.
func JoinErrors(reports []RunReport) error {
	var errs []error
	for _, rep := range reports {
		if rep.Err != nil {
			errs = append(errs, rep.Err)
		}
	}
	return errors.Join(errs...)
}
