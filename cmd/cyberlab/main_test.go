package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseSeeds(t *testing.T) {
	cases := []struct {
		in   string
		want []uint64
		err  bool
	}{
		{in: "1..4", want: []uint64{1, 2, 3, 4}},
		{in: "7..7", want: []uint64{7}},
		{in: "3,1,3", want: []uint64{3, 1, 3}},
		{in: " 5 , 6 ", want: []uint64{5, 6}},
		{in: "4..2", err: true},
		{in: "a..b", err: true},
		{in: "1..999999999", err: true},
		{in: "", err: true},
		{in: "1,x", err: true},
	}
	for _, c := range cases {
		got, err := parseSeeds(c.in)
		if c.err {
			if err == nil {
				t.Errorf("parseSeeds(%q) accepted, want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSeeds(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseSeeds(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("parseSeeds(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestSeedSweepSingleExperiment(t *testing.T) {
	if err := run(context.Background(), []string{"-run", "F3", "-seeds", "1..2", "-parallel", "2"}); err != nil {
		t.Fatalf("sweep F3: %v", err)
	}
}

func TestBadParallelValue(t *testing.T) {
	if err := run(context.Background(), []string{"-all", "-parallel", "0"}); err == nil {
		t.Fatal("-parallel 0 accepted")
	}
}

func TestBadSeedsValue(t *testing.T) {
	if err := run(context.Background(), []string{"-all", "-seeds", "9..1"}); err == nil {
		t.Fatal("bad -seeds range accepted")
	}
}

func TestListFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run(context.Background(), []string{"-run", "F3", "-seed", "3"}); err != nil {
		t.Fatalf("run F3: %v", err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), []string{"-run", "ZZ"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestNoModeIsError(t *testing.T) {
	if err := run(context.Background(), nil); err == nil {
		t.Fatal("no mode accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestStrayArgumentRefused: a positional argument that names no
// subcommand is refused by name instead of being silently ignored.
func TestStrayArgumentRefused(t *testing.T) {
	for stray, args := range map[string][]string{
		"checkpoint": {"checkpoint", "-run", "C1", "-at", "12h"},
		"profile":    {"profile", "-run", "C7", "-o", "manifest.json"},
		"extra":      {"-run", "F3", "extra"},
	} {
		if err := run(context.Background(), args); err == nil || !strings.Contains(err.Error(), `"`+stray+`"`) {
			t.Fatalf("run(%q) = %v, want a refusal naming %q", args, err, stray)
		}
	}
}

// TestSubcommandStrayArgumentRefused: flag parsing stops at the first
// positional argument, so every flag after a stray one would be dropped
// silently (detect would print its alerts to stdout instead of -o).
// Each subcommand refuses the stray argument by name instead, before it
// runs or writes anything.
func TestSubcommandStrayArgumentRefused(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	for _, args := range [][]string{
		{"trace", "-in", "x.jsonl", "junk", "-dot", out},
		{"detect", "-in", "x.jsonl", "junk", "-o", out},
	} {
		err := run(context.Background(), args)
		if err == nil || !strings.HasPrefix(err.Error(), args[0]+":") || !strings.Contains(err.Error(), `"junk"`) {
			t.Fatalf("run(%q) = %v, want a %s refusal naming \"junk\"", args, err, args[0])
		}
		if _, statErr := os.Stat(out); statErr == nil {
			t.Fatalf("run(%q) wrote %s despite refusing its arguments", args, out)
		}
	}
}
