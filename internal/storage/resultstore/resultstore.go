// Package resultstore is the on-disk results store for scenario sweeps:
// every sweep execution appends one run file of JSONL cell records under
// <dir>/runs/, and an index keyed by scenario hash tracks the latest
// digest of every cell across runs. Tables are rendered from the store,
// not the other way round — the store is the system of record that
// makes sweep results comparable across runs and commits.
//
// Layout:
//
//	<dir>/runs/<run-id>.jsonl   append-only; line 1 is the run meta,
//	                            every further line is one cell record
//	<dir>/index.json            scenario hash -> latest {key, digest, run}
package resultstore

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/canonjson"
	"repro/netfpga/sweep"
)

// Meta describes one run.
type Meta struct {
	// Run is the run id (also the file name).
	Run string `json:"run"`
	// Name is the sweep config's name.
	Name string `json:"name,omitempty"`
	// Config is the config file path the run came from.
	Config string `json:"config,omitempty"`
	// Filter is the cell filter the run used ("" = full).
	Filter string `json:"filter,omitempty"`
	// Seed and Workers record how the run executed.
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers,omitempty"`
	// Stamp is a human timestamp (informational only; never part of
	// any digest).
	Stamp string `json:"stamp,omitempty"`
	// Partial marks a partial run: it records the cells a fleet had
	// harvested so far, is excluded from the index, and is meant to be
	// folded into a complete run by MergeRuns.
	Partial bool `json:"partial,omitempty"`
	// Shard labels the fleet a partial run was harvested from
	// ("fleet/3": three workers).
	Shard string `json:"shard,omitempty"`
	// Transport records how a distributed run reached its workers
	// ("proc", "tcp", "proc+tcp"); empty for in-process runs.
	Transport string `json:"transport,omitempty"`
	// Requeued counts cells that were reassigned after a worker died
	// or hung mid-run. Nonzero Requeued with matching digests is the
	// recovery path proving itself.
	Requeued int `json:"requeued,omitempty"`
	// ResumedFrom is the interrupted run id whose partial records this
	// run adopted (`sweep -resume`); provenance only, never part of any
	// digest.
	ResumedFrom string `json:"resumed_from,omitempty"`
	// Util is the run's merged fleet-wide utilization report.
	Util *sweep.UtilizationReport `json:"util,omitempty"`
	// WorkerUtil holds per-worker utilization: where the run's cells
	// went and how busy each worker's pool was. An older run's sched,
	// sched_from, plan_hash and worker_util[].weight keys are ignored on
	// decode.
	WorkerUtil []WorkerUtil `json:"worker_util,omitempty"`
}

// WorkerUtil is one worker's persisted session outcome within a run.
type WorkerUtil struct {
	// Name is the endpoint name (stable across runs for a given fleet
	// topology: "proc:0", "tcp:host:port", ...).
	Name string `json:"name"`
	// Cells is how many cells the worker completed.
	Cells int `json:"cells"`
	// Util is the worker's own session utilization report.
	Util sweep.UtilizationReport `json:"util"`
}

// Record is one executed cell: the record the fleet's wire carries,
// stored as it is. The name remains only because benchmark/ still uses
// it.
type Record = sweep.CellRecord

// line is the JSONL envelope: exactly one of Meta or Cell is set.
type line struct {
	Meta *Meta   `json:"meta,omitempty"`
	Cell *Record `json:"cell,omitempty"`
}

// IndexEntry is the index's view of one scenario.
type IndexEntry struct {
	Key    string `json:"key"`
	Digest string `json:"digest"`
	Run    string `json:"run"`
}

// Hash returns the scenario hash of a cell key: the first 12 hex digits
// of its SHA-256. It is the index key, short enough to be a usable CLI
// handle while collision-safe at any plausible matrix size.
func Hash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:6])
}

// Store is an open results directory.
type Store struct {
	dir   string
	index map[string]IndexEntry
}

// Open opens (creating if needed) a results directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, err
	}
	st := &Store{dir: dir, index: map[string]IndexEntry{}}
	data, err := os.ReadFile(st.indexPath())
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return nil, err
	default:
		if err := json.Unmarshal(data, &st.index); err != nil {
			return nil, fmt.Errorf("resultstore: corrupt index %s: %w", st.indexPath(), err)
		}
	}
	return st, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) indexPath() string { return filepath.Join(st.dir, "index.json") }

func (st *Store) runPath(run string) string {
	return filepath.Join(st.dir, "runs", run+".jsonl")
}

// Runs lists the store's run ids, sorted.
func (st *Store) Runs() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(st.dir, "runs"))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if name, ok := strings.CutSuffix(e.Name(), ".jsonl"); ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Index returns the current scenario-hash index.
func (st *Store) Index() map[string]IndexEntry { return st.index }

// LatestDigests returns cell key -> latest digest across all runs.
func (st *Store) LatestDigests() map[string]string {
	out := make(map[string]string, len(st.index))
	for _, e := range st.index {
		out[e.Key] = e.Digest
	}
	return out
}

// RunWriter appends one run. Every record is flushed to the file as it
// is appended — a coordinator killed mid-run leaves a partial file
// holding every cell it harvested (the raw material `sweep -resume`
// rebuilds from), not a buffer's worth less; Close finalises the file
// and folds the run into the index.
type RunWriter struct {
	st   *Store
	meta Meta
	f    *os.File
	w    *bufio.Writer
	recs []Record
	err  error
	buf  []byte // writeLine's cell line, reused
}

// Begin creates a new run file. The run id must be unique within the
// store.
func (st *Store) Begin(meta Meta) (*RunWriter, error) {
	if meta.Run == "" {
		return nil, fmt.Errorf("resultstore: run needs an id")
	}
	if strings.ContainsAny(meta.Run, "/\\") {
		return nil, fmt.Errorf("resultstore: run id %q must not contain path separators", meta.Run)
	}
	f, err := os.OpenFile(st.runPath(meta.Run), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	rw := &RunWriter{st: st, meta: meta, f: f, w: bufio.NewWriter(f)}
	rw.writeLine(line{Meta: &meta})
	if rw.err == nil {
		rw.err = rw.w.Flush()
	}
	return rw, rw.err
}

// writeLine writes a cell line with canonjson's writer and falls back
// to json.Marshal for a meta line or a record canonjson declines.
func (rw *RunWriter) writeLine(l line) {
	ok := false
	if l.Cell != nil {
		rw.buf, ok = appendCellLine(rw.buf[:0], l.Cell)
	}
	if !ok && rw.err == nil {
		rw.buf, rw.err = json.Marshal(l)
	}
	if rw.err == nil {
		_, rw.err = rw.w.Write(append(rw.buf, '\n'))
	}
}

// appendCellLine appends r's cell line, as json.Marshal writes it,
// unless canonjson declines r.
func appendCellLine(b []byte, r *Record) ([]byte, bool) {
	b, ok := canonjson.AppendCell(append(b, `{"cell":`...), r)
	return append(b, '}'), ok
}

// Append records one cell and flushes it through to the file.
func (rw *RunWriter) Append(rec Record) error {
	rw.writeLine(line{Cell: &rec})
	if rw.err == nil {
		rw.err = rw.w.Flush()
	}
	if rw.err == nil {
		rw.recs = append(rw.recs, rec)
	}
	return rw.err
}

// Close flushes the run file and updates the index atomically. Partial
// runs never enter the index — only complete (merged) runs define "the
// latest digest" of a scenario.
func (rw *RunWriter) Close() error {
	if rw.err == nil {
		rw.err = rw.w.Flush()
	}
	if cerr := rw.f.Close(); rw.err == nil {
		rw.err = cerr
	}
	if rw.err != nil || rw.meta.Partial {
		return rw.err
	}
	for _, rec := range rw.recs {
		rw.st.index[Hash(rec.Key)] = IndexEntry{Key: rec.Key, Digest: rec.Digest, Run: rw.meta.Run}
	}
	return rw.st.writeIndex()
}

// writeIndex persists the index via rename for atomicity.
func (st *Store) writeIndex() error {
	data, err := json.MarshalIndent(st.index, "", "  ")
	if err != nil {
		return err
	}
	tmp := st.indexPath() + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, st.indexPath())
}

// appendLine adds one cell line exactly as another run stored it, under
// key and digest for the index. Unlike Append it does not flush: the
// merge that calls it writes a complete run, which Close flushes.
func (rw *RunWriter) appendLine(key, digest, b string) {
	if rw.err != nil {
		return
	}
	if _, err := rw.w.WriteString(b); err != nil {
		rw.err = err
		return
	}
	if rw.err = rw.w.WriteByte('\n'); rw.err == nil {
		rw.recs = append(rw.recs, Record{Key: key, Digest: digest})
	}
}

// eachLine calls fn with every line of run's file, numbered from 1, and
// returns fn's first error. The line is valid only during the call.
func (st *Store) eachLine(run string, fn func(n int, b []byte) error) error {
	f, err := os.Open(st.runPath(run))
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for n := 1; sc.Scan(); n++ {
		if err := fn(n, sc.Bytes()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// ReadRun loads one run's meta and records.
func (st *Store) ReadRun(run string) (Meta, []Record, error) {
	var meta Meta
	var recs []Record
	err := st.eachLine(run, func(n int, b []byte) error {
		var l line
		if err := json.Unmarshal(b, &l); err != nil {
			return fmt.Errorf("resultstore: %s line %d: %w", run, n, err)
		}
		switch {
		case l.Meta != nil:
			meta = *l.Meta
		case l.Cell != nil:
			recs = append(recs, *l.Cell)
		default:
			return fmt.Errorf("resultstore: %s line %d: empty record", run, n)
		}
		return nil
	})
	return meta, recs, err
}

// errTorn ends ReadRunTolerant's read at the first malformed line.
var errTorn = errors.New("resultstore: torn line")

// ReadRunTolerant loads one run like ReadRun, but stops at the first
// malformed line instead of failing: everything before it is returned,
// the rest is reported as dropped. This is the resume-path reader — a
// coordinator killed mid-write leaves a torn final line, and the
// records above the tear are exactly what `-resume` wants (each is
// digest-verified again before it counts for anything). Real I/O
// errors still fail.
func (st *Store) ReadRunTolerant(run string) (Meta, []Record, int, error) {
	var meta Meta
	var recs []Record
	dropped := 0
	err := st.eachLine(run, func(_ int, b []byte) error {
		var l line
		if err := json.Unmarshal(b, &l); err != nil {
			dropped++
			return errTorn
		}
		switch {
		case l.Meta != nil:
			meta = *l.Meta
		case l.Cell != nil:
			recs = append(recs, *l.Cell)
		default:
			dropped++
		}
		return nil
	})
	if errors.Is(err, errTorn) {
		err = nil
	}
	return meta, recs, dropped, err
}

// PartialRuns lists the store's partial runs whose id starts with
// prefix, sorted — how `-resume <run>` finds an interrupted run's
// persisted pieces (the fleet writes `<run>-fleet`). Runs whose meta
// line is unreadable
// are skipped: a file torn before its first line holds no records
// worth adopting.
func (st *Store) PartialRuns(prefix string) ([]string, error) {
	runs, err := st.Runs()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, run := range runs {
		if !strings.HasPrefix(run, prefix) {
			continue
		}
		meta, _, _, err := st.ReadRunTolerant(run)
		if err != nil || !meta.Partial {
			continue
		}
		out = append(out, run)
	}
	return out, nil
}

// RunDigests returns one run's meta and its key -> digest map.
func (st *Store) RunDigests(run string) (Meta, map[string]string, error) {
	meta, recs, err := st.ReadRun(run)
	if err != nil {
		return Meta{}, nil, err
	}
	out := make(map[string]string, len(recs))
	for _, r := range recs {
		out[r.Key] = r.Digest
	}
	return meta, out, nil
}

// MergeRuns folds several (typically partial) runs into one
// new complete run: the union of their cell records, deduplicated by
// key. Records for the same key must agree byte-for-byte on their
// digest — overlapping runs that disagree mean a determinism bug, and
// the merge refuses rather than pick a side. expect, when non-nil,
// lists the keys the merged run must cover (the coordinator's plan);
// any missing key aborts the merge, so a partial harvest can never
// masquerade as a complete run. The inputs stay on disk untouched
// (the store is append-only); only the merged run enters the index.
// Records are written in sorted key order, and the merge returns the
// number of cells written. A merge reads only each record's key and
// digest and copies the line the part stored, byte for byte: the store
// wrote that line, so it is the record's encoding already. A line in
// the canonical layout Append writes is read by canonjson; any other,
// a torn one included, by encoding/json, whose error fails the merge.
func (st *Store) MergeRuns(meta Meta, parts []string, expect []string) (int, error) {
	if len(parts) == 0 {
		return 0, fmt.Errorf("resultstore: merge of no runs")
	}
	// stored is one part's cell line and the fields the merge reads.
	type stored struct{ key, digest, part, line string }
	merged := map[string]stored{}
	for _, part := range parts {
		// A part is read whole before any of its records is merged, so
		// a torn part fails as a read error even past a conflict.
		var recs []stored
		err := st.eachLine(part, func(n int, b []byte) error {
			var c Record
			if s := string(b); canonjson.ParseCell(s, `{"cell":`, "}", &c) {
				recs = append(recs, stored{c.Key, c.Digest, part, s})
				return nil
			}
			var l struct {
				Meta *struct{} `json:"meta"`
				Cell *struct {
					Key    string `json:"key"`
					Digest string `json:"digest"`
				} `json:"cell"`
			}
			if err := json.Unmarshal(b, &l); err != nil {
				return fmt.Errorf("resultstore: %s line %d: %w", part, n, err)
			}
			switch {
			case l.Meta != nil:
			case l.Cell != nil:
				recs = append(recs, stored{l.Cell.Key, l.Cell.Digest, part, string(b)})
			default:
				return fmt.Errorf("resultstore: %s line %d: empty record", part, n)
			}
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("resultstore: merge: %w", err)
		}
		for _, rec := range recs {
			if prev, ok := merged[rec.key]; ok {
				if prev.digest != rec.digest {
					return 0, fmt.Errorf("resultstore: merge conflict: cell %s has digest %s in %s but %s in %s",
						rec.key, prev.digest, prev.part, rec.digest, part)
				}
				continue // identical overlap: dedup
			}
			merged[rec.key] = rec
		}
	}
	if expect != nil {
		var missing []string
		for _, k := range expect {
			if _, ok := merged[k]; !ok {
				missing = append(missing, k)
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			return 0, fmt.Errorf("resultstore: merge incomplete: %d of %d expected cells missing (first: %s)",
				len(missing), len(expect), missing[0])
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	meta.Partial = false
	rw, err := st.Begin(meta)
	if err != nil {
		return 0, err
	}
	for _, k := range keys {
		rw.appendLine(k, merged[k].digest, merged[k].line)
	}
	if rw.err == nil {
		rw.err = rw.w.Flush()
	}
	if err := rw.err; err != nil {
		// Close (never indexes after a write error) and drop the
		// truncated target so a rebuild can't mistake it for a
		// complete run.
		_ = rw.Close()
		_ = os.Remove(st.runPath(meta.Run))
		return 0, err
	}
	return len(keys), rw.Close()
}

// RebuildIndex reconstructs index.json from nothing but the run files:
// complete runs are replayed in sorted run-id order (run ids are
// timestamps, so later runs win), partial runs are skipped, and the
// rebuilt index is written atomically. It returns the number of indexed
// scenarios. This is the recovery path for a lost or corrupt index —
// the JSONL run log is the system of record.
func (st *Store) RebuildIndex() (int, error) {
	runs, err := st.Runs()
	if err != nil {
		return 0, err
	}
	index := map[string]IndexEntry{}
	for _, run := range runs {
		meta, recs, err := st.ReadRun(run)
		if err != nil {
			return 0, fmt.Errorf("resultstore: rebuild: %w", err)
		}
		if meta.Partial {
			continue
		}
		for _, rec := range recs {
			index[Hash(rec.Key)] = IndexEntry{Key: rec.Key, Digest: rec.Digest, Run: run}
		}
	}
	st.index = index
	return len(index), st.writeIndex()
}

// Diff compares two digest maps and returns human-readable difference
// lines (sorted; empty means identical over the common key set plus
// additions/removals).
func Diff(old, new map[string]string) []string {
	var diffs []string
	for k, d := range new {
		o, ok := old[k]
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("new: %s", k))
		case o != d:
			diffs = append(diffs, fmt.Sprintf("changed: %s (%s -> %s)", k, o, d))
		}
	}
	for k := range old {
		if _, ok := new[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("removed: %s", k))
		}
	}
	sort.Strings(diffs)
	return diffs
}
