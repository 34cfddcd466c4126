// Package resultstore is the on-disk results store for scenario sweeps:
// every sweep execution appends one run file of JSONL cell records under
// <dir>/runs/, and those files are the whole store. A cell's latest
// digest is the one in the complete run with the greatest run id that
// holds it; LatestDigests and Resolve scan the runs for it. Tables are
// rendered from the store, not the other way round — the store is the
// system of record that makes sweep results comparable across runs and
// commits.
//
// Layout:
//
//	<dir>/runs/<run-id>.jsonl   append-only; line 1 is the run meta,
//	                            every further line is one cell record
//
// Any other file in <dir> is ignored.
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
	// Digest is the digest version of the run's cell records
	// (sweep.DigestVersion); Begin stamps it. A run written before
	// versions were recorded has none, which is version 1. A run of
	// another version cannot be resumed or compared
	// (sweep.CheckDigestVersion), and LatestDigests leaves it out.
	Digest int `json:"digest,omitempty"`
	// Stamp is a human timestamp (informational only; never part of
	// any digest).
	Stamp string `json:"stamp,omitempty"`
	// Partial marks a partial run: it records the cells a fleet had
	// harvested so far, is left out of Runs (so of every "latest"
	// question), and is meant to be folded into a complete run by
	// MergeRuns.
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
	WorkerUtil []sweep.WorkerReport `json:"worker_util,omitempty"`
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

// Hash returns the scenario hash of a cell key: the first 12 hex digits
// of its SHA-256. Resolve matches it like the key: short enough to be a
// usable CLI handle while collision-safe at any plausible matrix size.
func Hash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:6])
}

// Store is an open results directory.
type Store struct {
	dir string
}

// Open opens (creating if needed) a results directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) runPath(run string) string {
	return filepath.Join(st.dir, "runs", run+".jsonl")
}

// Runs lists the store's complete runs, sorted by run id: the order in
// which a later run's digest of a cell is its latest. A run whose meta
// line marks it partial, or that has no meta line (a Begin cut short),
// is left out, and none of its cells is read.
func (st *Store) Runs() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(st.dir, "runs"))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name, ok := strings.CutSuffix(e.Name(), ".jsonl")
		if !ok {
			continue
		}
		var meta *Meta
		err := st.eachLine(name, func(_ int, b []byte) error {
			var l line
			if json.Unmarshal(b, &l) == nil {
				meta = l.Meta
			}
			return errStop
		})
		if err != nil && !errors.Is(err, errStop) {
			return nil, err
		}
		if meta != nil && !meta.Partial {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// LatestDigests returns cell key -> latest digest across the complete
// runs, and the number of cells it leaves out because their latest run
// is of another digest version or no longer reads: such a digest
// differs from this binary's for the same result.
func (st *Store) LatestDigests() (map[string]string, int) {
	out := map[string]string{}
	stale := map[string]bool{}
	// A runs directory that does not list holds no digest to compare
	// against; the run that follows fails on its own writes.
	runs, _ := st.Runs()
	for _, run := range runs {
		meta, cells, err := st.readCells(run)
		current := err == nil && meta.Digest == sweep.DigestVersion
		for _, c := range cells {
			if current {
				out[c.key] = c.digest
				delete(stale, c.key)
			} else {
				stale[c.key] = true
				delete(out, c.key)
			}
		}
	}
	return out, len(stale)
}

// RunWriter appends one run. Every record is flushed to the file as it
// is appended — a coordinator killed mid-run leaves a partial file
// holding every cell it harvested (the raw material `sweep -resume`
// rebuilds from), not a buffer's worth less; Close finalises the file.
type RunWriter struct {
	f   *os.File
	w   *bufio.Writer
	err error
	buf []byte // writeLine's cell line, reused
}

// Begin creates a new run file, stamped with this binary's digest
// version. The run id must be unique within the store.
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
	meta.Digest = sweep.DigestVersion
	rw := &RunWriter{f: f, w: bufio.NewWriter(f)}
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
	return rw.err
}

// Close flushes and closes the run file.
func (rw *RunWriter) Close() error {
	if rw.err == nil {
		rw.err = rw.w.Flush()
	}
	if cerr := rw.f.Close(); rw.err == nil {
		rw.err = cerr
	}
	return rw.err
}

// appendLine adds one cell line exactly as another run stored it.
// Unlike Append it does not flush: the merge that calls it writes a
// complete run, which Close flushes.
func (rw *RunWriter) appendLine(b string) {
	if rw.err == nil {
		_, rw.err = rw.w.WriteString(b)
	}
	if rw.err == nil {
		rw.err = rw.w.WriteByte('\n')
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

// errStop ends an eachLine read early without an error.
var errStop = errors.New("resultstore: stop")

// ReadRun loads one run's meta and records. It stops at the first line
// that does not decode, and returns the records above it with the
// number of lines it dropped: 1 for that line (nothing after it is
// read), plus every line that is neither meta nor cell. A coordinator
// killed mid-write leaves a torn final line, and the records above the
// tear are exactly what `-resume` wants (each is digest-verified again
// before it counts for anything); every other reader refuses a run
// with dropped lines. Real I/O errors still fail.
func (st *Store) ReadRun(run string) (Meta, []Record, int, error) {
	var meta Meta
	var recs []Record
	dropped := 0
	err := st.eachLine(run, func(_ int, b []byte) error {
		var l line
		if err := json.Unmarshal(b, &l); err != nil {
			dropped++
			return errStop
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
	if errors.Is(err, errStop) {
		err = nil
	}
	return meta, recs, dropped, err
}

// storedCell is one stored cell line and the two fields every scan of
// the store reads.
type storedCell struct{ key, digest, line string }

// readCells reads run's meta and the key and digest of each of its cell
// lines, in file order, with each line as stored. A line in the
// canonical layout Append writes is read by canonjson; any other, a
// torn one included, by encoding/json, whose error ends the read, as
// does a line that is neither meta nor cell. The cells before the
// failing line are returned with the error.
func (st *Store) readCells(run string) (Meta, []storedCell, error) {
	var meta Meta
	var cells []storedCell
	var tab canonjson.Table
	err := st.eachLine(run, func(n int, b []byte) error {
		var c Record
		if s := string(b); canonjson.ParseCell(s, `{"cell":`, "}", &c, &tab) {
			cells = append(cells, storedCell{c.Key, c.Digest, s})
			return nil
		}
		var l struct {
			Meta *Meta `json:"meta"`
			Cell *struct {
				Key    string `json:"key"`
				Digest string `json:"digest"`
			} `json:"cell"`
		}
		if err := json.Unmarshal(b, &l); err != nil {
			return fmt.Errorf("resultstore: %s line %d: %w", run, n, err)
		}
		switch {
		case l.Meta != nil:
			meta = *l.Meta
		case l.Cell != nil:
			cells = append(cells, storedCell{l.Cell.Key, l.Cell.Digest, string(b)})
		default:
			return fmt.Errorf("resultstore: %s line %d: empty record", run, n)
		}
		return nil
	})
	return meta, cells, err
}

// RunDigests returns one run's meta and its key -> digest map. Any line
// that does not read fails it, naming the line.
func (st *Store) RunDigests(run string) (Meta, map[string]string, error) {
	meta, cells, err := st.readCells(run)
	if err != nil {
		return Meta{}, nil, err
	}
	out := make(map[string]string, len(cells))
	for _, c := range cells {
		out[c.key] = c.digest
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
// (the store is append-only). Records are written in sorted key order,
// and the merge returns the number of cells written. A merge reads only
// each record's key and digest (readCells) and copies the line the part
// stored, byte for byte: the store wrote that line, so it is the
// record's encoding already. A line that does not read fails the merge.
func (st *Store) MergeRuns(meta Meta, parts []string, expect []string) (int, error) {
	if len(parts) == 0 {
		return 0, fmt.Errorf("resultstore: merge of no runs")
	}
	type stored struct {
		storedCell
		part string
	}
	merged := map[string]stored{}
	for _, part := range parts {
		// A part is read whole before any of its records is merged, so
		// a torn part fails as a read error even past a conflict.
		_, cells, err := st.readCells(part)
		if err != nil {
			return 0, fmt.Errorf("resultstore: merge: %w", err)
		}
		for _, c := range cells {
			if prev, ok := merged[c.key]; ok {
				if prev.digest != c.digest {
					return 0, fmt.Errorf("resultstore: merge conflict: cell %s has digest %s in %s but %s in %s",
						c.key, prev.digest, prev.part, c.digest, part)
				}
				continue // identical overlap: dedup
			}
			merged[c.key] = stored{c, part}
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
		rw.appendLine(merged[k].line)
	}
	if rw.err == nil {
		rw.err = rw.w.Flush()
	}
	if err := rw.err; err != nil {
		// Close and drop the truncated target so no scan mistakes it
		// for a complete run.
		_ = rw.Close()
		_ = os.Remove(st.runPath(meta.Run))
		return 0, err
	}
	return len(keys), rw.Close()
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
