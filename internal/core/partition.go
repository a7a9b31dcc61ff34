package core

// The world partitioner (DESIGN.md §14). A partitioned experiment
// shards its fleet by site: every site is a complete, isolated World —
// own kernel, RNG stream, internet, LAN, malware build — coupled into
// one campaign through a sim.PartitionSet's epoch-boundary mailboxes.
// The site layout (count, sizes, seeds, epoch width) is part of the
// scenario, like a seed; RunOptions.Partitions (the -partitions flag)
// only sizes the worker pool that advances the shards, so any worker
// count produces byte-identical reports, traces, metrics and alerts —
// the same invariance contract AddHostsSharded established for fleet
// construction.
//
// Every site world joins the experiment's *Run (AramcoFleetOptions.Run,
// DESIGN.md §13), so a stall watchdog, a deadline or a cancelled context
// fans CancelRun out across every partition of the experiment, whichever
// goroutine built or advances it.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/malware/shamoon"
	"repro/internal/netsim"
	"repro/internal/runstats"
	"repro/internal/sim"
	"repro/internal/users"
)

// The C7 site layout: six sites (headquarters plus five regional
// offices) exchanging mail every 15 simulated minutes. Both constants
// are scenario state — changing either changes the simulated world.
const (
	aramcoSiteCount = 6
	aramcoEpoch     = 15 * time.Minute
)

// Cross-partition message kinds of the Aramco campaign.
const (
	aramcoCarryKind  = "shamoon-carry"  // inter-site infection courier
	aramcoReportKind = "shamoon-report" // wipe reports homed at the hub
)

// AramcoFleetOptions shape a partitioned multi-site Aramco world.
type AramcoFleetOptions struct {
	Workstations int // total fleet, split across sites (default 600)
	Sites        int // default aramcoSiteCount
	// The per-site knobs below pass through to every site's
	// AramcoOptions.
	DocsPerHost  int
	SpreadEvery  time.Duration
	LeanImages   bool
	BuildWorkers int
	EagerDocs    bool
	Activity     users.Mix
	MuteTrace    bool
	// CarryAfter is when the hub couriers the infection to the other
	// sites (default 1h after the world starts); delivery lands at the
	// next epoch boundary.
	CarryAfter time.Duration
	// Workers sizes the pool advancing the site shards (<= 0 means 1).
	// Any value is byte-equivalent.
	Workers int
	// Run is the experiment run every site world joins (nil: detached);
	// site fleets with Activity unset follow its mix.
	Run *Run
}

// AramcoFleet is a partitioned multi-site Aramco world: Sites[0] is the
// headquarters hub — patient zero lands there and the wipe-reporter
// domain is homed there — and every other site starts clean, ignited by
// a cross-partition carry.
type AramcoFleet struct {
	Set     *sim.PartitionSet
	Sites   []*AramcoScenario
	workers int
}

// BuildAramcoFleet assembles the partitioned world.
func BuildAramcoFleet(seed uint64, opts AramcoFleetOptions) (*AramcoFleet, error) {
	if opts.Workstations <= 0 {
		opts.Workstations = 600
	}
	if opts.Sites <= 0 {
		opts.Sites = aramcoSiteCount
	}
	if opts.Sites > opts.Workstations {
		opts.Sites = opts.Workstations
	}
	if opts.CarryAfter <= 0 {
		opts.CarryAfter = time.Hour
	}
	start := shamoon.AramcoTrigger.Add(-24 * time.Hour)
	f := &AramcoFleet{Set: sim.NewPartitionSet(aramcoEpoch), workers: max(opts.Workers, 1)}

	// Site seeds are independent forks of one anchor, so the whole fleet
	// is a pure function of (seed, layout) — not of build or run order.
	anchor := sim.NewRNG(seed)
	base := opts.Workstations / opts.Sites
	extra := opts.Workstations % opts.Sites
	first := 0
	for i := 0; i < opts.Sites; i++ {
		size := base
		if i < extra {
			size++
		}
		w, err := NewWorld(WorldConfig{
			Run:       opts.Run,
			Seed:      anchor.ForkAt(uint64(i)).State(),
			Start:     start,
			MuteTrace: opts.MuteTrace,
		})
		if err != nil {
			return nil, err
		}
		if i > 0 {
			// One image memo for the whole partitioned world: every
			// site's hosts share the hub's, from whichever shard
			// goroutine advances them.
			w.images = f.Sites[0].World.images
		}
		part := f.Set.Add(w.K)
		siteOpts := AramcoOptions{
			Workstations: size,
			DocsPerHost:  opts.DocsPerHost,
			SpreadEvery:  opts.SpreadEvery,
			LeanImages:   opts.LeanImages,
			BuildWorkers: opts.BuildWorkers,
			EagerDocs:    opts.EagerDocs,
			Activity:     opts.Activity,
			LANName:      fmt.Sprintf("aramco-site-%02d", i+1),
			Subnet:       fmt.Sprintf("10.%d.0", 30+i),
			FirstIndex:   first,
			NoPatient0:   i > 0,
		}
		if i > 0 {
			p := part
			siteOpts.ReporterForward = func(req *netsim.Request) { p.Send(0, aramcoReportKind, req) }
		}
		sc, err := BuildAramco(w, siteOpts)
		if err != nil {
			return nil, err
		}
		f.Sites = append(f.Sites, sc)
		first += size
	}

	// Mailbox handlers. The hub re-dispatches forwarded wipe reports
	// through its own internet, so they land on the real reporter server
	// with normal counters and trace records; a dispatch failure (e.g. a
	// fault took the domain down hub-side) drops the report, exactly as
	// a dead domain drops a direct one.
	hub := f.Sites[0]
	f.Set.Partition(0).OnDeliver(func(m sim.Message) {
		switch m.Kind {
		case aramcoReportKind:
			req, ok := m.Payload.(*netsim.Request)
			if !ok {
				panic(fmt.Sprintf("core: %s payload is %T, want *netsim.Request", m.Kind, m.Payload))
			}
			_, _ = hub.World.Internet.Dispatch(req)
		default:
			panic(fmt.Sprintf("core: hub received unknown partition message %q", m.Kind))
		}
	})
	for i := 1; i < len(f.Sites); i++ {
		sc := f.Sites[i]
		f.Set.Partition(i).OnDeliver(func(m sim.Message) {
			switch m.Kind {
			case aramcoCarryKind:
				if err := sc.Infect(); err != nil {
					panic(err)
				}
			default:
				panic(fmt.Sprintf("core: site received unknown partition message %q", m.Kind))
			}
		})
	}
	if len(f.Sites) > 1 {
		hubPart := f.Set.Partition(0)
		sites := len(f.Sites)
		hub.World.K.Schedule(opts.CarryAfter, "aramco-carry-courier", func() {
			for j := 1; j < sites; j++ {
				hubPart.Send(j, aramcoCarryKind, nil)
			}
		})
	}
	if c := runstats.Active(); c != nil {
		c.SetPartitions(len(f.Sites))
	}
	return f, nil
}

// RunUntil advances the whole fleet to the deadline and feeds the
// per-partition wall/step shares to the telemetry collector.
func (f *AramcoFleet) RunUntil(deadline time.Time) error {
	err := f.Set.RunUntil(deadline, f.workers)
	if c := runstats.Active(); c != nil {
		for i, st := range f.Set.Stats() {
			c.RecordPartition(i, st.Steps, st.Wall)
		}
	}
	return err
}

// Kernels returns every site kernel in partition order — the capture
// order CaptureObsMerged anchors span IDs by.
func (f *AramcoFleet) Kernels() []*sim.Kernel {
	ks := make([]*sim.Kernel, len(f.Sites))
	for i, sc := range f.Sites {
		ks[i] = sc.World.K
	}
	return ks
}

// InfectedCount sums infections across sites.
func (f *AramcoFleet) InfectedCount() int {
	n := 0
	for _, sc := range f.Sites {
		n += sc.Shamoon.InfectedCount()
	}
	return n
}

// WipedCount sums unbootable wiped hosts across sites.
func (f *AramcoFleet) WipedCount() int {
	n := 0
	for _, sc := range f.Sites {
		n += sc.WipedCount()
	}
	return n
}

// FleetStats sums the per-site Shamoon campaign counters.
func (f *AramcoFleet) FleetStats() shamoon.Stats {
	var total shamoon.Stats
	for _, sc := range f.Sites {
		st := sc.Shamoon.Stats
		total.InfectedHosts += st.InfectedHosts
		total.SpreadCopies += st.SpreadCopies
		total.WipedHosts += st.WipedHosts
		total.FilesWiped += st.FilesWiped
		total.MBRsOverwritten += st.MBRsOverwritten
		total.ReportsSent += st.ReportsSent
		total.DriverLoadErrors += st.DriverLoadErrors
	}
	return total
}

// Reports returns the wipe reports that reached the hub's reporter
// server — the hub site's directly plus every satellite's via the
// epoch mailboxes.
func (f *AramcoFleet) Reports() []*netsim.Request { return f.Sites[0].Reports }

// RunAramcoPartitionedN is the C7 runner with fleet size, site count,
// partition workers (<= 0 means 1), build workers and seeding mode
// exposed, on a detached world. Reports are byte-identical across any
// partWorkers/buildWorkers value and across eager/lazy seeding — the
// §9/§14 properties the determinism tests and the ci.sh drift gate pin.
// sites = 1 is the single-kernel world (one shard, no mailbox traffic),
// which the reduced benches and substrate tests drive. The fleet is
// explicitly silent (users.MixNone) so the frozen BENCH_C7.json baseline
// never depends on an activity mix; RunAramcoBusyN is the populated twin.
func RunAramcoPartitionedN(seed uint64, fleet, sites, partWorkers, buildWorkers int, eagerDocs bool) (*Result, error) {
	return runAramco(nil, seed, fleet, sites, partWorkers, buildWorkers, eagerDocs, users.MixNone, true)
}

// RunAramcoBusyN is RunAramcoPartitionedN with the fleet populated by
// office agents and its build-worker count exposed — the memory and
// throughput twin the 1.3x cost gate compares against the silent run.
func RunAramcoBusyN(seed uint64, fleet, sites, buildWorkers int) (*Result, error) {
	return runAramco(nil, seed, fleet, sites, 0, buildWorkers, false, users.MixOffice, true)
}

// runAramco builds the C7 fleet, runs it past the trigger and scores it:
// the one code path behind every C7 result, from the one-site reduced
// slice to the registry's six-site 30,000-host world.
func runAramco(run *Run, seed uint64, fleet, sites, partWorkers, buildWorkers int,
	eagerDocs bool, mix users.Mix, mute bool) (*Result, error) {
	f, err := BuildAramcoFleet(seed, AramcoFleetOptions{
		Run:          run,
		Workstations: fleet,
		Sites:        sites,
		DocsPerHost:  2,
		SpreadEvery:  2 * time.Hour,
		LeanImages:   true,
		BuildWorkers: buildWorkers,
		EagerDocs:    eagerDocs,
		Activity:     mix,
		MuteTrace:    mute,
		Workers:      partWorkers,
	})
	if err != nil {
		return nil, err
	}
	if err := f.RunUntil(shamoon.AramcoTrigger.Add(2 * time.Hour)); err != nil {
		return nil, err
	}

	res := &Result{
		ID:    "C7",
		Title: "Aramco-scale destruction",
		Paper: "complete destruction of ~30,000 workstations; trigger August 15, 2012, 08:08 UTC",
	}
	stats := f.FleetStats()
	res.metric("fleet_size", float64(fleet), "hosts")
	res.metric("sites", float64(len(f.Sites)), "sites")
	res.metric("infected", float64(f.InfectedCount()), "hosts")
	res.metric("wiped_unbootable", float64(f.WipedCount()), "hosts")
	res.metric("mbrs_overwritten", float64(stats.MBRsOverwritten), "hosts")
	res.metric("files_overwritten", float64(stats.FilesWiped), "files")
	res.metric("reports_sent", float64(stats.ReportsSent), "reports")
	res.metric("reports_received", float64(len(f.Reports())), "reports")
	// Everything wiped exactly at/after the hardcoded instant, on every
	// site — satellites wipe on their own clocks, one LAN apart.
	wipedBefore := 0
	benignAgents, benignActions := 0, 0
	for _, sc := range f.Sites {
		for _, h := range sc.Hosts {
			for _, e := range h.EventLog() {
				if strings.Contains(e.Message, "host wiped") && e.At.Before(shamoon.AramcoTrigger) {
					wipedBefore++
				}
			}
		}
		if sc.Users != nil {
			benignAgents += sc.Users.Stats.Agents
			benignActions += sc.Users.Stats.Actions()
		}
	}
	res.metric("wiped_before_trigger", float64(wipedBefore), "hosts")
	if benignAgents > 0 {
		res.metric("benign_agents", float64(benignAgents), "agents")
		res.metric("benign_actions", float64(benignActions), "actions")
	}
	res.Pass = f.InfectedCount() == fleet && f.WipedCount() == fleet &&
		wipedBefore == 0 && len(f.Reports()) == fleet
	res.summaryf("%d/%d workstations across %d sites infected and left unbootable; 0 wiped before the hardcoded trigger instant; %d/%d wipe reports reached the hub",
		f.WipedCount(), fleet, len(f.Sites), len(f.Reports()), fleet)
	res.notef("world sharded by site (§14): one kernel per site, cross-site carries and wipe reports ride epoch-boundary mailboxes; output bytes are invariant under -partitions")
	res.CaptureObsMerged(f.Kernels()...)
	return res, nil
}
