package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/host"
	"repro/internal/sim"
)

// c7Fingerprint runs the one-site reduced C7 with the given build-worker
// count and seeding mode, and flattens everything observable — the
// rendered report, every metric, and the full obs snapshot — into one
// comparable string.
func c7Fingerprint(t *testing.T, workers int, eager bool) string {
	t.Helper()
	res, err := RunAramcoPartitionedN(7, 300, 1, 0, workers, eager)
	if err != nil {
		t.Fatalf("RunAramcoPartitionedN(workers=%d eager=%v): %v", workers, eager, err)
	}
	obsJSON, err := json.Marshal(res.Obs)
	if err != nil {
		t.Fatalf("marshal obs: %v", err)
	}
	return res.Render() + "\n" + string(obsJSON)
}

// TestShardedBuildWorkerCountInvariance is the §9 fleet-construction
// contract: 1, 4 and 8 build workers produce byte-identical experiment
// output.
func TestShardedBuildWorkerCountInvariance(t *testing.T) {
	base := c7Fingerprint(t, 1, false)
	for _, workers := range []int{4, 8} {
		if got := c7Fingerprint(t, workers, false); got != base {
			t.Fatalf("report diverged at %d build workers:\n--- 1 worker ---\n%s\n--- %d workers ---\n%s",
				workers, base, workers, got)
		}
	}
}

// TestEagerLazySeedingEquivalence: materialising document bytes at seeding
// time versus on first read must not change a single observable byte of a
// full campaign run.
func TestEagerLazySeedingEquivalence(t *testing.T) {
	lazy := c7Fingerprint(t, 1, false)
	eager := c7Fingerprint(t, 1, true)
	if lazy != eager {
		t.Fatalf("eager/lazy runs diverged:\n--- lazy ---\n%s\n--- eager ---\n%s", lazy, eager)
	}
}

// TestShardedHostStreamsMatchSpecIndex pins the RNG derivation: host i's
// stream is a pure function of the anchor and i, so rebuilding the same
// world yields identical per-host document layouts.
func TestShardedHostStreamsMatchSpecIndex(t *testing.T) {
	build := func(workers int) []string {
		w, err := NewWorld(WorldConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		lan := w.NewLAN("l", "10.0.0", false)
		specs := make([]HostSpec, 20)
		for i := range specs {
			specs[i] = HostSpec{
				Name: fmt.Sprintf("H-%02d", i),
				Seed: func(h *host.Host) error {
					h.SeedDocumentsSized("u", 5, 4096)
					return nil
				},
			}
		}
		hosts, err := w.AddHostsSharded(lan, workers, specs)
		if err != nil {
			t.Fatal(err)
		}
		var layout []string
		for _, h := range hosts {
			h.FS.Walk(`C:\Users`, func(f *host.FileNode) bool {
				layout = append(layout, fmt.Sprintf("%s:%s:%d", h.Name, f.Path, f.Size()))
				return true
			})
		}
		return layout
	}
	a, b := build(1), build(6)
	if len(a) != len(b) {
		t.Fatalf("layout sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("layout[%d] = %q vs %q", i, a[i], b[i])
		}
	}
}

// TestSeedingFailureSurfacesFromShardedBuild: a host whose documents
// cannot be written must abort the build instead of silently shrinking
// the corpus (the bug SeedDocumentsSized used to hide).
func TestSeedingFailureSurfacesFromShardedBuild(t *testing.T) {
	w, err := NewWorld(WorldConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lan := w.NewLAN("l", "10.0.0", false)
	specs := []HostSpec{{
		Name: "H-00",
		Seed: func(h *host.Host) error {
			pre := h.RNG.State()
			if _, failed := h.SeedDocumentsSized("u", 3, 4096); failed != 0 {
				return fmt.Errorf("%d documents failed to seed", failed)
			}
			// Lock the corpus read-only, rewind the stream, and reseed: the
			// replayed draws pick exactly the same paths, so every write
			// fails and the counter must say so.
			var paths []string
			h.FS.Walk(`C:\Users`, func(f *host.FileNode) bool { paths = append(paths, f.Path); return true })
			for _, p := range paths {
				if err := h.FS.Write(p, nil, host.AttrReadOnly, h.K.Now()); err != nil {
					return err
				}
			}
			h.RNG = sim.NewRNG(pre)
			if _, failed := h.SeedDocumentsSized("u", 3, 4096); failed != 3 {
				return fmt.Errorf("expected 3 failed writes, got %d", failed)
			}
			return fmt.Errorf("seeding collided with read-only corpus")
		},
	}}
	if _, err := w.AddHostsSharded(lan, 1, specs); err == nil {
		t.Fatal("sharded build swallowed the seeding failure")
	}
}
