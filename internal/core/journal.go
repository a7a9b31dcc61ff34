package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/users"
)

// The run journal (DESIGN.md §13) makes a long sweep crash-safe: an
// append-only JSONL file with one header record (the run configuration)
// followed by one record per completed experiment, each carrying a
// sha256 over its payload bytes and fsync'd before the runner moves on.
// A process killed mid-run loses at most the record it was writing;
// OpenJournal tolerates that torn final line by truncating it away.
// `cyberlab -resume` then serves every journaled outcome without
// re-executing it — and because the payload is the complete Result
// (metrics, notes, blocks, obs snapshot, trace events in lossless
// JSONL), the resumed run's report, trace and metrics artefacts are
// byte-identical to an uninterrupted run at any -parallel width.
//
// The journal itself lives on the wall-clock plane (it records wall
// durations and its record order is worker-finish order); only the
// payloads inside it are deterministic.

// journalVersion gates payload-format drift: a journal written by a
// different format refuses to resume rather than replay garbage.
const journalVersion = 1

// JournalConfig is the run configuration a journal is bound to. All
// three values are part of the determinism contract, so resuming under
// a different configuration is refused.
type JournalConfig struct {
	Seed     uint64 `json:"seed"`
	Faults   string `json:"faults"`
	Activity string `json:"activity"`
}

// canonical spells the tuple one way, both when a header is written and
// when one is compared: the default fault profile by name, and a silent
// fleet as "" whether it was asked for as "" or "none" — the two produce
// byte-identical runs, so their journals must resume each other.
func (c JournalConfig) canonical() JournalConfig {
	if c.Faults == "" {
		c.Faults = faults.DefaultProfile
	}
	if c.Activity == string(users.MixNone) {
		c.Activity = ""
	}
	return c
}

type journalHeader struct {
	Kind    string `json:"kind"` // "header"
	Version int    `json:"version"`
	JournalConfig
}

// journalRecord is one completed experiment. Hash is sha256 hex over
// the raw Payload bytes (or over Err when the experiment failed), so a
// bit-flipped record is detected before it is replayed.
type journalRecord struct {
	Kind    string          `json:"kind"` // "experiment"
	ID      string          `json:"id"`
	Seed    uint64          `json:"seed"`
	Err     string          `json:"err,omitempty"`
	Hash    string          `json:"hash"`
	WallMS  float64         `json:"wall_ms"` // advisory; wall-clock plane
	Payload json.RawMessage `json:"payload,omitempty"`
}

// resultPayload is the journaled encoding of a Result. Every field
// round-trips losslessly: obs.Snapshot has JSON tags, and the trace
// events use the obs JSONL codec whose round-trip is property-tested.
type resultPayload struct {
	ID      string       `json:"id"`
	Title   string       `json:"title"`
	Paper   string       `json:"paper,omitempty"`
	Summary string       `json:"summary,omitempty"`
	Metrics []Metric     `json:"metrics,omitempty"`
	Notes   []string     `json:"notes,omitempty"`
	Blocks  []string     `json:"blocks,omitempty"`
	Pass    bool         `json:"pass"`
	Obs     obs.Snapshot `json:"obs"`
	Events  string       `json:"events,omitempty"` // obs JSONL
}

// encodeResultPayload canonically serialises a Result (json.Marshal
// sorts map keys, so equal results produce equal bytes).
func encodeResultPayload(res *Result) ([]byte, error) {
	var ev strings.Builder
	if err := obs.WriteJSONL(&ev, res.Events); err != nil {
		return nil, err
	}
	return json.Marshal(resultPayload{
		ID: res.ID, Title: res.Title, Paper: res.Paper, Summary: res.Summary,
		Metrics: res.Metrics, Notes: res.Notes, Blocks: res.Blocks,
		Pass: res.Pass, Obs: res.Obs, Events: ev.String(),
	})
}

func decodeResultPayload(data []byte) (*Result, error) {
	var p resultPayload
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	res := &Result{
		ID: p.ID, Title: p.Title, Paper: p.Paper, Summary: p.Summary,
		Metrics: p.Metrics, Notes: p.Notes, Blocks: p.Blocks,
		Pass: p.Pass, Obs: p.Obs,
	}
	if p.Events != "" {
		events, err := obs.ParseJSONL(strings.NewReader(p.Events))
		if err != nil {
			return nil, fmt.Errorf("replay trace events: %w", err)
		}
		res.Events = events
	}
	return res, nil
}

func hashJournalBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Journal is an open run journal: the replayed outcomes of a previous
// (possibly crashed) run plus an append handle for this one.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	cfg      JournalConfig
	replayed map[string]RunReport
	served   int
	recorded int
	writeErr error
}

func journalKey(id string, seed uint64) string {
	return fmt.Sprintf("%s#%d", id, seed)
}

// OpenJournal opens (or creates) the journal at path under the given
// run configuration. A non-empty journal requires resume=true — running
// a fresh sweep onto an existing journal would silently skip its
// experiments. When resuming, every record is hash-verified, a torn
// final line (the crash signature) is truncated away, and a header that
// does not match cfg is an error.
func OpenJournal(path string, resume bool, cfg JournalConfig) (*Journal, error) {
	j := &Journal{path: path, cfg: cfg.canonical(), replayed: make(map[string]RunReport)}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	keep := 0
	if len(data) > 0 {
		if !resume {
			return nil, fmt.Errorf("journal %s already holds a run (%d bytes); pass -resume to continue it, or point -journal at a fresh file", path, len(data))
		}
		if keep, err = j.replay(data); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	// Physically drop the torn tail so the file on disk is exactly the
	// verified prefix before any new record lands after it.
	if err := f.Truncate(int64(keep)); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal %s: truncate torn tail: %w", path, err)
	}
	if _, err := f.Seek(int64(keep), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	j.f = f
	if keep == 0 {
		hdr := journalHeader{Kind: "header", Version: journalVersion, JournalConfig: j.cfg}
		line, err := json.Marshal(hdr)
		if err != nil {
			f.Close()
			return nil, err
		}
		if err := j.append(line); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// replay verifies data's records and loads the completed outcomes,
// returning the byte length of the verified prefix. Only the final line
// may be damaged (every record was fsync'd before the next began, so a
// crash can tear at most the last one); damage anywhere else is
// corruption and refuses to resume.
func (j *Journal) replay(data []byte) (int, error) {
	off, lineNo := 0, 0
	for off < len(data) {
		nl := -1
		for i := off; i < len(data); i++ {
			if data[i] == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			// No trailing newline: the final record never finished
			// writing. Drop it; the experiment re-runs.
			return off, nil
		}
		lineNo++
		final := nl == len(data)-1
		fatal, damaged := j.replayLine(data[off:nl], lineNo)
		if fatal != nil {
			return 0, fmt.Errorf("journal %s: line %d: %w", j.path, lineNo, fatal)
		}
		if damaged {
			if final {
				return off, nil
			}
			return 0, fmt.Errorf("journal %s: line %d is damaged but not the final record — the file is corrupt, refusing to resume from it", j.path, lineNo)
		}
		off = nl + 1
	}
	return off, nil
}

// replayLine verifies one record. damaged marks states a crash can
// produce (unparseable bytes, hash mismatch); fatal marks states it
// cannot (wrong header config, wrong version, structural nonsense).
func (j *Journal) replayLine(line []byte, lineNo int) (fatal error, damaged bool) {
	var probe struct {
		Kind string `json:"kind"`
	}
	if json.Unmarshal(line, &probe) != nil {
		return nil, true
	}
	switch probe.Kind {
	case "header":
		if lineNo != 1 {
			return fmt.Errorf("header record in the middle of the journal"), false
		}
		var h journalHeader
		if json.Unmarshal(line, &h) != nil {
			return nil, true
		}
		if h.Version != journalVersion {
			return fmt.Errorf("journal format v%d, this build writes v%d", h.Version, journalVersion), false
		}
		if h.JournalConfig.canonical() != j.cfg {
			return fmt.Errorf("journal was recorded with seed=%d faults=%q activity=%q but this run uses seed=%d faults=%q activity=%q — a resume must replay the identical configuration",
				h.Seed, h.Faults, h.Activity, j.cfg.Seed, j.cfg.Faults, j.cfg.Activity), false
		}
		return nil, false
	case "experiment":
		if lineNo == 1 {
			return fmt.Errorf("first record is not the journal header"), false
		}
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil {
			return nil, true
		}
		content := []byte(rec.Payload)
		if rec.Err != "" {
			content = []byte(rec.Err)
		}
		if hashJournalBytes(content) != rec.Hash {
			return nil, true
		}
		rep := RunReport{ID: rec.ID, Seed: rec.Seed, FromJournal: true}
		if rec.Err != "" {
			rep.Err = errors.New(rec.Err)
		} else {
			res, err := decodeResultPayload(rec.Payload)
			if err != nil {
				// The payload hash verified, so this is format drift in
				// the code, not disk damage.
				return fmt.Errorf("experiment %s payload does not decode: %w", rec.ID, err), false
			}
			rep.Result = res
		}
		j.replayed[journalKey(rec.ID, rec.Seed)] = rep
		return nil, false
	default:
		return fmt.Errorf("unknown record kind %q", probe.Kind), false
	}
}

// Lookup returns the journaled outcome for (id, seed), if any. A nil
// journal serves nothing.
func (j *Journal) Lookup(id string, seed uint64) (RunReport, bool) {
	if j == nil {
		return RunReport{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	rep, ok := j.replayed[journalKey(id, seed)]
	if ok {
		j.served++
	}
	return rep, ok
}

// Record journals one completed outcome: full result payload on
// success, error text on deterministic failure. Incomplete outcomes —
// skipped or aborted-partial reports — are deliberately not journaled,
// so a resume re-runs them. Write errors are sticky and surface from
// Close, never corrupting the report. A nil journal records nothing.
func (j *Journal) Record(rep RunReport) {
	if j == nil || rep.Skipped || rep.Partial || rep.FromJournal {
		return
	}
	rec := journalRecord{
		Kind: "experiment", ID: rep.ID, Seed: rep.Seed,
		WallMS: float64(rep.Wall) / float64(time.Millisecond),
	}
	if rep.Err != nil {
		rec.Err = rep.Err.Error()
		rec.Hash = hashJournalBytes([]byte(rec.Err))
	} else {
		payload, err := encodeResultPayload(rep.Result)
		if err != nil {
			j.fail(fmt.Errorf("encode %s: %w", rep.ID, err))
			return
		}
		rec.Payload = payload
		rec.Hash = hashJournalBytes(payload)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		j.fail(fmt.Errorf("marshal %s record: %w", rep.ID, err))
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.writeErr != nil {
		return
	}
	if err := j.appendLocked(line); err != nil {
		j.writeErr = err
	} else {
		j.recorded++
	}
}

func (j *Journal) fail(err error) {
	j.mu.Lock()
	if j.writeErr == nil {
		j.writeErr = err
	}
	j.mu.Unlock()
}

func (j *Journal) append(line []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(line)
}

// appendLocked writes one record line and fsyncs it: a record either
// fully reaches the disk before the runner moves on, or the crash tears
// only this line, which the next OpenJournal truncates.
func (j *Journal) appendLocked(line []byte) error {
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("journal %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal %s: fsync: %w", j.path, err)
	}
	return nil
}

// Served reports how many lookups were satisfied from the journal.
func (j *Journal) Served() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.served
}

// Recorded reports how many fresh outcomes this run appended.
func (j *Journal) Recorded() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recorded
}

// Close flushes and closes the journal, surfacing any write error that
// occurred during the run.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var errs []error
	if j.writeErr != nil {
		errs = append(errs, j.writeErr)
	}
	if j.f != nil {
		if err := j.f.Sync(); err != nil {
			errs = append(errs, fmt.Errorf("journal %s: fsync: %w", j.path, err))
		}
		if err := j.f.Close(); err != nil {
			errs = append(errs, fmt.Errorf("journal %s: close: %w", j.path, err))
		}
		j.f = nil
	}
	return errors.Join(errs...)
}
