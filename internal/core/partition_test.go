package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/malware/shamoon"
	"repro/internal/sim"
	"repro/internal/users"
)

// resultBytes canonically serialises a result for byte comparison.
func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := encodeResultPayload(res)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

// reducedPartitionedRunner is the test-tier partitioned C7: 240 hosts
// across the six-site layout with traces retained, so byte comparisons
// cover the merged trace stream, not just metrics. The partition width
// comes from the run.
func reducedPartitionedRunner(run *Run) (*Result, error) {
	return runAramco(run, run.Seed, 240, 6, run.partitions(), 0, false, users.MixNone, false)
}

// TestPartitionWorkerByteIdentity is the §14 acceptance gate: the
// partitioned world's full result payload — report fields, merged obs
// snapshot, merged trace JSONL — is byte-identical at every partition
// worker width.
func TestPartitionWorkerByteIdentity(t *testing.T) {
	base, err := reducedPartitionedRunner(&Run{Seed: 3, opt: RunOptions{Partitions: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Pass {
		t.Fatalf("reduced partitioned C7 did not reproduce:\n%s", base.Render())
	}
	if len(base.Events) == 0 {
		t.Fatal("unmuted partitioned run retained no trace events; byte identity would be vacuous")
	}
	base.attachProvenance()
	want := resultBytes(t, base)

	for _, w := range []int{2, 4, 8} {
		res, err := reducedPartitionedRunner(&Run{Seed: 3, opt: RunOptions{Partitions: w}})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		res.attachProvenance()
		if got := resultBytes(t, res); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d produced different bytes than workers=1", w)
		}
	}
}

// TestPartitionOneSiteMatchesSingleKernel is the equivalence that lets
// the one-site fleet stand in for the single-kernel C7 (DESIGN.md §14):
// BuildAramcoFleet with Sites: 1 and a hand-built world — the site's
// forked seed, LAN name and subnet on one kernel advanced by plain
// RunUntil — produce the same obs snapshot, trace records, per-host
// event logs and Shamoon counters, silent and populated alike. With one
// shard the epoch loop only splits RunUntil into windows.
func TestPartitionOneSiteMatchesSingleKernel(t *testing.T) {
	const seed, hosts = 5, 300
	start := shamoon.AramcoTrigger.Add(-24 * time.Hour)
	end := shamoon.AramcoTrigger.Add(2 * time.Hour)
	site := AramcoOptions{DocsPerHost: 2, SpreadEvery: 2 * time.Hour, LeanImages: true}

	type observed struct {
		obs, trace []byte
		logs       [][]host.LogEntry
		stats      shamoon.Stats
	}
	observe := func(sc *AramcoScenario) observed {
		snap, err := json.Marshal(sc.World.K.Metrics().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if err := sc.World.K.Trace().WriteJSONL(&trace); err != nil {
			t.Fatal(err)
		}
		o := observed{obs: snap, trace: trace.Bytes(), stats: sc.Shamoon.Stats}
		for _, h := range sc.Hosts {
			o.logs = append(o.logs, h.EventLog())
		}
		return o
	}

	for _, mix := range []users.Mix{users.MixNone, users.MixOffice} {
		f, err := BuildAramcoFleet(seed, AramcoFleetOptions{
			Workstations: hosts, Sites: 1, Activity: mix,
			DocsPerHost: site.DocsPerHost, SpreadEvery: site.SpreadEvery, LeanImages: site.LeanImages,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.RunUntil(end); err != nil {
			t.Fatal(err)
		}
		fleet := observe(f.Sites[0])

		w, err := NewWorld(WorldConfig{Seed: sim.NewRNG(seed).ForkAt(0).State(), Start: start})
		if err != nil {
			t.Fatal(err)
		}
		opts := site
		opts.Workstations, opts.Activity = hosts, mix
		opts.LANName, opts.Subnet = "aramco-site-01", "10.30.0"
		sc, err := BuildAramco(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.K.RunUntil(end); err != nil {
			t.Fatal(err)
		}
		single := observe(sc)

		if single.stats.WipedHosts != hosts || len(single.trace) == 0 {
			t.Fatalf("mix %q: single-kernel run wiped %d/%d hosts with %d trace bytes; the comparison would be vacuous",
				mix, single.stats.WipedHosts, hosts, len(single.trace))
		}
		if !bytes.Equal(fleet.obs, single.obs) {
			t.Errorf("mix %q: obs snapshots differ", mix)
		}
		if !bytes.Equal(fleet.trace, single.trace) {
			t.Errorf("mix %q: trace records differ", mix)
		}
		if !reflect.DeepEqual(fleet.logs, single.logs) {
			t.Errorf("mix %q: host event logs differ", mix)
		}
		if fleet.stats != single.stats {
			t.Errorf("mix %q: shamoon stats differ: %+v vs %+v", mix, fleet.stats, single.stats)
		}
	}
}

// TestPartitionWorkerRegistrySliceInvariant pins that the partition
// width is inert for the rest of the registry: a representative slice
// (figure, resilience, detection) produces identical bytes at any
// width.
func TestPartitionWorkerRegistrySliceInvariant(t *testing.T) {
	ids := []string{"F1", "R2", "D4"}
	want := make(map[string][]byte)
	for _, id := range ids {
		want[id] = payloadBytes(t, runOne(id, 1, RunOptions{Partitions: 1}))
	}
	for _, id := range ids {
		if got := payloadBytes(t, runOne(id, 1, RunOptions{Partitions: 8})); !bytes.Equal(got, want[id]) {
			t.Fatalf("%s bytes changed under -partitions 8", id)
		}
	}
}

// TestPartitionComposesWithParallel: a partitioned experiment rides the
// parallel experiment runner next to ordinary experiments, and the
// (partition width × pool width) grid leaves every report's bytes
// unchanged.
func TestPartitionComposesWithParallel(t *testing.T) {
	registerTempExperiment(t, "ZZ-fleet", reducedPartitionedRunner)
	ids := []string{"F3", "ZZ-fleet", "C1"}

	baseline := RunExperimentsOpts(context.Background(), ids, 1, RunOptions{Workers: 1, Partitions: 1})
	want := make([][]byte, len(baseline))
	for i, rep := range baseline {
		want[i] = payloadBytes(t, rep)
	}

	reports := RunExperimentsOpts(context.Background(), ids, 1, RunOptions{Workers: 3, Partitions: 4})
	for i, rep := range reports {
		if got := payloadBytes(t, rep); !bytes.Equal(got, want[i]) {
			t.Fatalf("%s bytes changed under -partitions 4 -parallel 3", rep.ID)
		}
	}
}

// TestPartitionComposesWithJournalResume: a partitioned experiment
// journaled at one partition width resumes byte-identically at another
// — the width is deliberately outside the journal's determinism tuple,
// like -parallel.
func TestPartitionComposesWithJournalResume(t *testing.T) {
	registerTempExperiment(t, "ZZ-fleet", reducedPartitionedRunner)
	cfg := testJournalConfig(1)
	path := filepath.Join(t.TempDir(), "run.journal")

	j1, err := OpenJournal(path, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := RunExperimentsOpts(context.Background(), []string{"ZZ-fleet"}, 1, RunOptions{Workers: 1, Partitions: 1, Journal: j1})
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	want := payloadBytes(t, first[0])

	j2, err := OpenJournal(path, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	resumed := RunExperimentsOpts(context.Background(), []string{"ZZ-fleet"}, 1, RunOptions{Workers: 1, Partitions: 4, Journal: j2})
	if !resumed[0].FromJournal {
		t.Fatal("resumed run re-executed instead of serving the journal")
	}
	if got := payloadBytes(t, resumed[0]); !bytes.Equal(got, want) {
		t.Fatal("journal-served bytes differ from the recorded run")
	}
}

// TestPartitionDeadlineCancelFanOut: the supervision layer's deadline
// abort reaches every shard of a partitioned experiment — all six site
// kernels drain their queues, the pool ledgers balance, and the report
// is a partial with the deadline cause, even while four workers advance
// shards concurrently.
func TestPartitionDeadlineCancelFanOut(t *testing.T) {
	registerTempExperiment(t, "ZZ-stuck-fleet", func(run *Run) (*Result, error) {
		f, err := BuildAramcoFleet(run.Seed, AramcoFleetOptions{
			Workstations: 60, Sites: 6, LeanImages: true, MuteTrace: true, Workers: 4, Run: run,
		})
		if err != nil {
			return nil, err
		}
		// Vtime advances happily (no stall) but every event burns wall
		// clock, so the wall deadline fires mid-window.
		for _, sc := range f.Sites {
			k := sc.World.K
			for i := 0; i < 4000; i++ {
				k.Schedule(time.Duration(i+1)*time.Second, "slow", func() {
					time.Sleep(500 * time.Microsecond)
				})
			}
		}
		if err := f.RunUntil(shamoon.AramcoTrigger.Add(2 * time.Hour)); err != nil {
			return nil, err
		}
		return nil, errors.New("ZZ-stuck-fleet outlived a deadline that should have reaped it")
	})
	rep := runOne("ZZ-stuck-fleet", 1, RunOptions{Deadline: 60 * time.Millisecond})
	if !rep.Partial || !errors.Is(rep.Err, sim.ErrDeadline) {
		t.Fatalf("report = partial=%v err=%v, want partial ErrDeadline", rep.Partial, rep.Err)
	}
	if strings.Contains(rep.Err.Error(), "pool leaked") {
		t.Fatalf("partitioned abort leaked pooled events: %v", rep.Err)
	}
}
