package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/users"
)

func testJournalConfig(seed uint64) JournalConfig {
	return JournalConfig{Seed: seed}
}

// TestJournalCrashResumeByteIdentical is the S3 acceptance test: a
// journaled sweep killed mid-run — including a torn final journal line,
// the signature of a SIGKILL between write and fsync — must, after
// -resume, yield exactly the bytes of an uninterrupted run, at every
// worker width.
func TestJournalCrashResumeByteIdentical(t *testing.T) {
	ids := []string{"F3", "C1", "C8"}
	cfg := testJournalConfig(1)
	clean := RunExperiments(ids, 1, 1)
	want := make([][]byte, len(clean))
	for i, rep := range clean {
		want[i] = payloadBytes(t, rep)
	}

	for _, workers := range []int{1, 4, 8} {
		path := filepath.Join(t.TempDir(), "run.journal")

		// Phase 1: the "crashed" run — only the first experiment lands in
		// the journal before the process dies.
		j1, err := OpenJournal(path, false, cfg)
		if err != nil {
			t.Fatalf("workers=%d: open: %v", workers, err)
		}
		RunExperimentsOpts(context.Background(), ids[:1], 1, RunOptions{Workers: 1, Journal: j1})
		if err := j1.Close(); err != nil {
			t.Fatalf("workers=%d: close: %v", workers, err)
		}
		// The kill tears the record being written: half a JSON object,
		// no trailing newline.
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"kind":"experiment","id":"C1","seed":1,"hash":"dead`); err != nil {
			t.Fatal(err)
		}
		f.Close()
		tornSize := fileSize(t, path)

		// Phase 2: resume. The torn tail is truncated, F3 is served from
		// the journal, C1 and C8 execute fresh.
		j2, err := OpenJournal(path, true, cfg)
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if fileSize(t, path) >= tornSize {
			t.Fatalf("workers=%d: torn tail not truncated from the file", workers)
		}
		resumed := RunExperimentsOpts(context.Background(), ids, 1, RunOptions{Workers: workers, Journal: j2})
		if err := j2.Close(); err != nil {
			t.Fatalf("workers=%d: close after resume: %v", workers, err)
		}
		if !resumed[0].FromJournal {
			t.Fatalf("workers=%d: F3 was re-executed instead of served from the journal", workers)
		}
		if resumed[1].FromJournal || resumed[2].FromJournal {
			t.Fatalf("workers=%d: un-journaled experiments were served from the journal", workers)
		}
		for i := range ids {
			if !bytes.Equal(payloadBytes(t, resumed[i]), want[i]) {
				t.Fatalf("workers=%d: resumed %s differs from the uninterrupted run", workers, ids[i])
			}
		}

		// Phase 3: a second resume serves everything — the journal is now
		// complete and self-consistent.
		j3, err := OpenJournal(path, true, cfg)
		if err != nil {
			t.Fatalf("workers=%d: second resume: %v", workers, err)
		}
		replayed := RunExperimentsOpts(context.Background(), ids, 1, RunOptions{Workers: workers, Journal: j3})
		if j3.Served() != len(ids) {
			t.Fatalf("workers=%d: second resume served %d of %d", workers, j3.Served(), len(ids))
		}
		j3.Close()
		for i := range ids {
			if !replayed[i].FromJournal {
				t.Fatalf("workers=%d: %s missing from the completed journal", workers, ids[i])
			}
			if !bytes.Equal(payloadBytes(t, replayed[i]), want[i]) {
				t.Fatalf("workers=%d: journal-replayed %s differs from the uninterrupted run", workers, ids[i])
			}
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestJournalEveryPrefixResumes is the crash model of the journal: every
// record is fsync'd before the next begins, so a crash leaves some byte
// prefix of the file on disk. Every such prefix must resume, serve
// exactly the records whose newline lies inside it (byte-identical to
// the run that wrote them), and leave the file truncated to the last
// whole line.
func TestJournalEveryPrefixResumes(t *testing.T) {
	ids := []string{"F3", "C1"}
	cfg := testJournalConfig(1)
	dir := t.TempDir()
	src := filepath.Join(dir, "full.journal")
	j, err := OpenJournal(src, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports := RunExperimentsOpts(context.Background(), ids, 1, RunOptions{Workers: 1, Journal: j})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, rep := range reports {
		want[rep.ID] = payloadBytes(t, rep)
	}
	full, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(full, []byte("\n"))
	if len(lines) != len(ids)+2 || len(lines[len(lines)-1]) != 0 {
		t.Fatalf("journal has %d lines, want a header, %d records and a final newline", len(lines), len(ids))
	}
	header := len(lines[0])
	// ends[i] is the offset just past record i's newline.
	ends := make([]int, len(ids))
	off := header
	for i := range ids {
		off += len(lines[i+1])
		ends[i] = off
	}

	path := filepath.Join(dir, "cut.journal")
	for n := 0; n <= len(full); n++ {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, true, cfg)
		if err != nil {
			t.Fatalf("prefix %d/%d: resume refused: %v", n, len(full), err)
		}
		keep := header
		for i, id := range ids {
			rep, ok := j.Lookup(id, 1)
			if whole := ends[i] <= n; ok != whole {
				t.Fatalf("prefix %d/%d: %s served=%v, want %v", n, len(full), id, ok, whole)
			}
			if ok {
				keep = ends[i]
				if !bytes.Equal(payloadBytes(t, rep), want[id]) {
					t.Fatalf("prefix %d/%d: served %s differs from the run that journaled it", n, len(full), id)
				}
			}
		}
		if err := j.Close(); err != nil {
			t.Fatalf("prefix %d/%d: close: %v", n, len(full), err)
		}
		if got := fileSize(t, path); got != int64(keep) {
			t.Fatalf("prefix %d/%d: resumed file is %d bytes, want the %d-byte whole-line prefix", n, len(full), got, keep)
		}
	}
}

// TestJournalRequiresResumeFlag: running a fresh sweep onto an existing
// journal must be refused — it would silently skip its experiments.
func TestJournalRequiresResumeFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	cfg := testJournalConfig(1)
	j, err := OpenJournal(path, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenJournal(path, false, cfg); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("reopening without resume = %v, want a -resume refusal", err)
	}
}

// TestJournalConfigMismatchRefused: a journal is bound to its
// (seed, faults, activity) configuration; resuming under any other is
// an error, not silently different bytes.
func TestJournalConfigMismatchRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path, false, testJournalConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	other := testJournalConfig(2)
	if _, err := OpenJournal(path, true, other); err == nil || !strings.Contains(err.Error(), "identical configuration") {
		t.Fatalf("seed-mismatched resume = %v, want a configuration refusal", err)
	}
}

// TestJournalSilentMixResumes: "none" and the default mix are the same
// silent fleet (byte-identical reports), so their journals resume each
// other — including a journal whose header still spells it "none" — and
// the default profile resumes whether it is named or left empty.
func TestJournalSilentMixResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path, false, JournalConfig{Seed: 1, Activity: string(users.MixNone)})
	if err != nil {
		t.Fatal(err)
	}
	RunExperimentsOpts(context.Background(), []string{"F3"}, 1, RunOptions{Workers: 1, Activity: users.MixNone, Journal: j})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, rest, _ := bytes.Cut(data, []byte("\n"))
	if !bytes.Contains(header, []byte(`"faults":"takedown","activity":""`)) {
		t.Fatalf("header does not record the canonical tuple: %s", header)
	}
	// A journal written before the tuple was canonical says "none".
	legacy := bytes.Replace(header, []byte(`"activity":""`), []byte(`"activity":"none"`), 1)
	if err := os.WriteFile(path, append(append(legacy, '\n'), rest...), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []JournalConfig{
		{Seed: 1},
		{Seed: 1, Faults: "takedown", Activity: string(users.MixNone)},
	} {
		j2, err := OpenJournal(path, true, cfg)
		if err != nil {
			t.Fatalf("resume %+v of a silent-mix journal: %v", cfg, err)
		}
		if _, ok := j2.Lookup("F3", 1); !ok {
			t.Fatalf("resume %+v lost the journaled F3", cfg)
		}
		j2.Close()
	}
	if _, err := OpenJournal(path, true, JournalConfig{Seed: 1, Activity: string(users.MixOffice)}); err == nil {
		t.Fatal("a populated mix resumed a silent journal")
	}
}

// TestJournalCorruptionRefused: damage anywhere but the final line
// cannot be crash fallout (records are fsync'd in order), so it must
// refuse to resume rather than replay a half-trusted file.
func TestJournalCorruptionRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	cfg := testJournalConfig(1)
	j, err := OpenJournal(path, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	RunExperimentsOpts(context.Background(), []string{"F3", "C8"}, 1, RunOptions{Workers: 1, Journal: j})
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	if len(lines) < 4 { // header, F3, C8, trailing ""
		t.Fatalf("journal has %d lines, want at least 4", len(lines))
	}
	// Flip the pass bit inside the F3 record (line 2 of 3 — not the
	// final record, so this cannot be mistaken for a torn tail). The
	// line stays valid JSON; only the content hash can catch it.
	corrupt := bytes.Replace(lines[1], []byte(`"pass":true`), []byte(`"pass":false`), 1)
	if bytes.Equal(corrupt, lines[1]) {
		t.Fatal("test setup: F3 record has no pass bit to flip")
	}
	lines[1] = corrupt
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, true, cfg); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt-middle resume = %v, want a corruption refusal", err)
	}
}

// TestJournalSkipsIncompleteOutcomes: partial and skipped reports never
// enter the journal — a resume must re-run them — and a report the
// journal itself served is not appended a second time.
func TestJournalSkipsIncompleteOutcomes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	cfg := testJournalConfig(1)
	j, err := OpenJournal(path, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.Record(RunReport{ID: "F1", Seed: 1, Partial: true, Err: os.ErrDeadlineExceeded})
	j.Record(RunReport{ID: "F2", Seed: 1, Skipped: true, Err: os.ErrDeadlineExceeded})
	j.Record(RunReport{ID: "F4", Seed: 1, FromJournal: true, Result: &Result{ID: "F4"}})
	if j.Recorded() != 0 {
		t.Fatalf("journal recorded %d incomplete outcomes, want 0", j.Recorded())
	}
	j.Close()

	j2, err := OpenJournal(path, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	for _, id := range []string{"F1", "F2", "F4"} {
		if _, ok := j2.Lookup(id, 1); ok {
			t.Fatalf("incomplete outcome %s was journaled", id)
		}
	}
}

// TestJournalReplaysDeterministicFailures: a failed (but complete)
// experiment is journaled with its error text and served on resume,
// hash-verified like any success.
func TestJournalReplaysDeterministicFailures(t *testing.T) {
	registerTempExperiment(t, "ZZ-det-fail", func(*Run) (*Result, error) {
		return nil, os.ErrPermission
	})
	path := filepath.Join(t.TempDir(), "run.journal")
	cfg := testJournalConfig(1)
	j, err := OpenJournal(path, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := RunExperimentsOpts(context.Background(), []string{"ZZ-det-fail"}, 1, RunOptions{Workers: 1, Journal: j})
	j.Close()
	if first[0].Err == nil {
		t.Fatal("expected a failure")
	}

	j2, err := OpenJournal(path, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rep, ok := j2.Lookup("ZZ-det-fail", 1)
	if !ok || !rep.FromJournal || rep.Err == nil || rep.Err.Error() != first[0].Err.Error() {
		t.Fatalf("journaled failure replay = ok=%v rep=%+v", ok, rep)
	}
}
