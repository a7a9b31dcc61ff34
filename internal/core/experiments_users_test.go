package core

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/obs"
)

func TestD4NoisyPrecision(t *testing.T) {
	res := runExperiment(t, "D4")
	if v := res.MustMetric("recall"); v != 1 {
		t.Fatalf("noise cost recall: %v", v)
	}
	if v := res.MustMetric("false_positives"); v == 0 {
		t.Fatal("populated fleet produced zero false positives — the noise layer is not exercising the pack")
	}
	if v := res.MustMetric("unattributed_alerts"); v != 0 {
		t.Fatalf("%v alerts not attributable to a provenance root", v)
	}
}

func TestD5NoiseFloor(t *testing.T) {
	res := runExperiment(t, "D5")
	if v := res.MustMetric("fp_threshold_rules") + res.MustMetric("fp_sequence_rules"); v != 0 {
		t.Fatalf("stateful rules fired on pure noise: %v", v)
	}
	if res.MustMetric("false_positives") != res.MustMetric("maintenance_rounds") {
		t.Fatal("noise floor is not exactly one alert per admin maintenance round")
	}
	if v := res.MustMetric("fp_untriaged"); v != 0 {
		t.Fatalf("%v false positives do not chain to a benign session root", v)
	}
}

// userStream serializes a result's cat=user events to JSONL — the bytes
// the D5 golden excerpt is cut from.
func userStream(t *testing.T, res *Result) []byte {
	t.Helper()
	var evs []obs.Event
	for _, e := range res.Events {
		if e.Cat == "user" {
			evs = append(evs, e)
		}
	}
	if len(evs) == 0 {
		t.Fatal("no user events captured")
	}
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestD4D5StreamsParallelByteIdentical extends the issue's determinism
// gate to the populated experiments: both the alert stream and the
// benign-activity stream must be byte-identical at 1, 4 and 8 workers.
func TestD4D5StreamsParallelByteIdentical(t *testing.T) {
	get := func(workers int) [][]byte {
		reports := RunExperiments([]string{"D4", "D5"}, 1, workers)
		if len(reports) != 2 {
			t.Fatalf("want 2 reports, got %d", len(reports))
		}
		var out [][]byte
		for _, r := range reports {
			if r.Err != nil {
				t.Fatalf("%s with %d workers: %v", r.ID, workers, r.Err)
			}
			out = append(out, alertStream(t, r.Result), userStream(t, r.Result))
		}
		return out
	}
	want := get(1)
	for _, workers := range []int{4, 8} {
		got := get(workers)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("stream %d with %d workers differs from sequential", i, workers)
			}
		}
	}
}

// TestAramcoBusyBuildWorkerInvariant: the populated fleet is
// byte-identical (same experiment metrics, same benign action counts)
// whatever the sharded-build worker count — the users layer attaches
// after the merge, so agent RNG forks happen in host order.
func TestAramcoBusyBuildWorkerInvariant(t *testing.T) {
	get := func(workers int) string {
		res, err := RunAramcoBusyN(1, 200, 1, workers)
		if err != nil {
			t.Fatalf("RunAramcoBusyN(workers=%d): %v", workers, err)
		}
		return res.Render()
	}
	want := get(1)
	for _, workers := range []int{4, 8} {
		if got := get(workers); got != want {
			t.Fatalf("busy fleet with %d build workers diverged:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestBusyFleetMemoryBound is the busy-fleet cost gate: populating the
// one-site 2,000-host C7 slice with office agents must stay within 1.3x
// of the silent slice's allocations. It is the only assertion of the
// bound; BenchmarkUsersC7BusyReduced records the same pair's B/op in
// BENCH_C7.json, and nothing gates the 30,000-host fleet.
func TestBusyFleetMemoryBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	alloc := func(f func() error) float64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	silent := alloc(func() error {
		res, err := RunAramcoPartitionedN(1, 2000, 1, 0, 0, false)
		if err == nil && !res.Pass {
			t.Fatal("silent C7 run failed its own criteria")
		}
		return err
	})
	busy := alloc(func() error {
		res, err := RunAramcoBusyN(1, 2000, 1, 0)
		if err == nil && !res.Pass {
			t.Fatal("busy C7 run failed its own criteria")
		}
		return err
	})
	if ratio := busy / silent; ratio > 1.3 {
		t.Fatalf("populated fleet costs %.2fx the silent baseline (%.0f vs %.0f bytes), budget is 1.3x",
			ratio, busy, silent)
	}
}
