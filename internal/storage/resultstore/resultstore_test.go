package resultstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func rec(key, digest string, seed uint64) Record {
	return Record{
		Key: key, Digest: digest, Seed: seed,
		Values: map[string]float64{"v": 1.5},
		Labels: map[string]string{"l": "x"},
		SimPS:  123, Events: 9,
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := st.Begin(Meta{Run: "r1", Name: "demo", Seed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Append(rec("a/x=1", "d1", 11)); err != nil {
		t.Fatal(err)
	}
	if err := rw.Append(rec("a/x=2", "d2", 12)); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}

	meta, recs, err := st.ReadRun("r1")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Name != "demo" || meta.Seed != 7 || meta.Workers != 4 {
		t.Errorf("meta mangled: %+v", meta)
	}
	if len(recs) != 2 || recs[0].Key != "a/x=1" || recs[1].Digest != "d2" {
		t.Errorf("records mangled: %+v", recs)
	}
	if recs[0].Values["v"] != 1.5 || recs[0].Labels["l"] != "x" ||
		recs[0].SimPS != 123 || recs[0].Events != 9 {
		t.Errorf("record fields mangled: %+v", recs[0])
	}

	// The index keys by scenario hash and survives reopening.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := st2.Index()[Hash("a/x=1")]
	if !ok || e.Digest != "d1" || e.Run != "r1" || e.Key != "a/x=1" {
		t.Errorf("index entry broken: %+v (ok=%v)", e, ok)
	}
	latest := st2.LatestDigests()
	if latest["a/x=1"] != "d1" || latest["a/x=2"] != "d2" {
		t.Errorf("latest digests broken: %v", latest)
	}

	runs, err := st2.Runs()
	if err != nil || len(runs) != 1 || runs[0] != "r1" {
		t.Errorf("runs listing: %v %v", runs, err)
	}
}

func TestIndexTracksLatestRun(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct{ run, digest string }{{"r1", "old"}, {"r2", "new"}} {
		rw, err := st.Begin(Meta{Run: r.run})
		if err != nil {
			t.Fatal(err)
		}
		if err := rw.Append(rec("k", r.digest, 1)); err != nil {
			t.Fatal(err)
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if e := st.Index()[Hash("k")]; e.Digest != "new" || e.Run != "r2" {
		t.Errorf("index not updated to latest run: %+v", e)
	}

	_, d1, err := st.RunDigests("r1")
	if err != nil || d1["k"] != "old" {
		t.Errorf("historic run digests lost: %v %v", d1, err)
	}
}

func TestBeginRejectsBadRuns(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Begin(Meta{}); err == nil {
		t.Error("empty run id accepted")
	}
	if _, err := st.Begin(Meta{Run: "a/b"}); err == nil {
		t.Error("path separator in run id accepted")
	}
	if _, err := st.Begin(Meta{Run: "r"}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Begin(Meta{Run: "r"}); err == nil {
		t.Error("duplicate run id accepted")
	}
}

func TestCorruptLineReported(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "runs", "bad.jsonl")
	if err := os.WriteFile(path, []byte("{\"meta\":{\"run\":\"bad\"}}\nnot-json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.ReadRun("bad"); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("corrupt line not reported: %v", err)
	}
}

// writePartial records one shard's partial run.
func writePartial(t *testing.T, st *Store, run, shard string, recs ...Record) {
	t.Helper()
	rw, err := st.Begin(Meta{Run: run, Partial: true, Shard: shard})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := rw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMergePartialRuns: the shard-backend storage path — per-shard
// partial runs fold into one indexed complete run; partials never touch
// the index; identical overlaps dedup.
func TestMergePartialRuns(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writePartial(t, st, "m-s0", "0/2", rec("a/x=1", "d1", 11), rec("a/x=3", "d3", 13))
	writePartial(t, st, "m-s1", "1/2", rec("a/x=2", "d2", 12),
		// Identical overlap with shard 0 (e.g. a retried cell): legal.
		rec("a/x=1", "d1", 11))
	if len(st.Index()) != 0 {
		t.Fatalf("partial runs leaked into the index: %v", st.Index())
	}

	expect := []string{"a/x=1", "a/x=2", "a/x=3"}
	n, err := st.MergeRuns(Meta{Run: "m", Name: "demo", Seed: 7}, []string{"m-s0", "m-s1"}, expect)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("merged %d cells, want 3", n)
	}
	meta, recs, err := st.ReadRun("m")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Partial || meta.Name != "demo" {
		t.Errorf("merged meta mangled: %+v", meta)
	}
	if len(recs) != 3 || recs[0].Key != "a/x=1" || recs[1].Key != "a/x=2" || recs[2].Key != "a/x=3" {
		t.Errorf("merged records wrong: %+v", recs)
	}
	// Only the merged run is indexed, and it wins for every key.
	for _, k := range expect {
		if e := st.Index()[Hash(k)]; e.Run != "m" {
			t.Errorf("cell %s indexed from %q, want merged run", k, e.Run)
		}
	}
	// The partial inputs are still on disk, untouched.
	if runs, _ := st.Runs(); len(runs) != 3 {
		t.Errorf("append-only violated: runs = %v", runs)
	}
}

// TestMetaTransportProvenance: a distributed run's transport and
// requeue count survive the write/read round trip and the partial-run
// merge — the store is where "this run recovered from 2 worker deaths
// and still matched" is provable after the fact.
func TestMetaTransportProvenance(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writePartial(t, st, "f-part", "fleet/3", rec("a/x=1", "d1", 11))
	n, err := st.MergeRuns(Meta{Run: "f", Name: "demo", Transport: "proc+tcp", Requeued: 2},
		[]string{"f-part"}, []string{"a/x=1"})
	if err != nil || n != 1 {
		t.Fatalf("merge: n=%d err=%v", n, err)
	}
	meta, _, err := st.ReadRun("f")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Transport != "proc+tcp" || meta.Requeued != 2 {
		t.Errorf("fleet provenance mangled: %+v", meta)
	}
	// In-process runs carry no transport noise in their meta lines.
	pm, _, err := st.ReadRun("f-part")
	if err != nil {
		t.Fatal(err)
	}
	if pm.Transport != "" || pm.Requeued != 0 {
		t.Errorf("partial grew provenance it never had: %+v", pm)
	}
}

// TestMergeCopiesStoredBytes: a merge of two parts holding escaped keys
// and labels, -0, 1e21, an error string and an identical overlap writes
// the run and index.json byte for byte as the merge that decoded and
// re-encoded every record did (testdata/merge, written by that code).
func TestMergeCopiesStoredBytes(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []string{"fx-s0", "fx-s1"} {
		data, err := os.ReadFile(filepath.Join("testdata", "merge", part+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.runPath(part), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	expect := []string{"mid", "plain/k=2", `T<1>/a&b="q"/ü`, "alpha/<x>", "zeta/ü"}
	n, err := st.MergeRuns(Meta{Run: "fx", Name: "fixture <&>", Seed: 7, Workers: 2, Transport: "proc", Requeued: 1},
		[]string{"fx-s0", "fx-s1"}, expect)
	if err != nil || n != len(expect) {
		t.Fatalf("merge: n=%d err=%v", n, err)
	}
	for got, want := range map[string]string{st.runPath("fx"): "fx.jsonl", st.indexPath(): "index.json"} {
		g, err := os.ReadFile(got)
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(filepath.Join("testdata", "merge", want))
		if err != nil {
			t.Fatal(err)
		}
		if string(g) != string(w) {
			t.Errorf("%s differs from testdata/merge/%s:\n got %s\nwant %s", filepath.Base(got), want, g, w)
		}
	}
}

// TestMergeConflictsAndFailures: overlapping records that disagree on
// digest abort the merge, as do a partial shard failure (expected cells
// missing), a torn or empty line in a part, and a merge target colliding
// with an existing run id. The messages are the ones operators grep for.
func TestMergeConflictsAndFailures(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mergeErr := func(run string, parts, expect []string, want string) {
		t.Helper()
		if _, err := st.MergeRuns(Meta{Run: run}, parts, expect); err == nil || err.Error() != want {
			t.Errorf("merge %s: %v, want %q", run, err, want)
		}
	}
	writePartial(t, st, "c-s0", "0/2", rec("k", "digestA", 1))
	writePartial(t, st, "c-s1", "1/2", rec("k", "digestB", 1))
	mergeErr("c", []string{"c-s0", "c-s1"}, nil,
		"resultstore: merge conflict: cell k has digest digestA in c-s0 but digestB in c-s1")

	// Partial shard failure: shard 1's cells never arrived.
	writePartial(t, st, "p-s0", "0/2", rec("a", "d1", 1))
	mergeErr("p", []string{"p-s0"}, []string{"a", "b", "c"},
		"resultstore: merge incomplete: 2 of 3 expected cells missing (first: b)")

	// A part torn mid-record, and one with a line that is neither meta
	// nor cell.
	writePartial(t, st, "t-s0", "1/2", rec("a", "d1", 1), rec("b", "d2", 2))
	path := filepath.Join(dir, "runs", "t-s0.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	mergeErr("t", []string{"p-s0", "t-s0"}, nil,
		"resultstore: merge: resultstore: t-s0 line 3: unexpected end of JSON input")
	if err := os.WriteFile(filepath.Join(dir, "runs", "e-s0.jsonl"), []byte("{\"meta\":{\"run\":\"e-s0\"}}\n{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	mergeErr("e", []string{"e-s0"}, nil, "resultstore: merge: resultstore: e-s0 line 2: empty record")
	// The failed merges must not have produced indexed runs.
	if len(st.Index()) != 0 {
		t.Errorf("failed merge polluted the index: %v", st.Index())
	}

	// Overlapping run IDs: the merge target must be fresh.
	writePartial(t, st, "o-s0", "0/1", rec("a", "d1", 1))
	if _, err := st.MergeRuns(Meta{Run: "o-s0"}, []string{"o-s0"}, nil); err == nil {
		t.Error("merge over an existing run id accepted")
	}
	// And merging nothing is an error, not an empty run.
	if _, err := st.MergeRuns(Meta{Run: "z"}, nil, nil); err == nil {
		t.Error("merge of no runs accepted")
	}
}

// TestRebuildIndex: the index is fully reconstructible from the JSONL
// run log — later runs win, partial runs are skipped, and the rebuilt
// file survives reopening.
func TestRebuildIndex(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct{ run, digest string }{{"r1", "old"}, {"r2", "new"}} {
		rw, err := st.Begin(Meta{Run: r.run})
		if err != nil {
			t.Fatal(err)
		}
		if err := rw.Append(rec("k", r.digest, 1)); err != nil {
			t.Fatal(err)
		}
		if err := rw.Append(rec("only-"+r.run, "d-"+r.run, 1)); err != nil {
			t.Fatal(err)
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writePartial(t, st, "r3-s0", "0/2", rec("k", "partial-digest", 1))

	// Lose the index; rebuild must recover exactly the pre-loss state.
	if err := os.Remove(filepath.Join(dir, "index.json")); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Index()) != 0 {
		t.Fatalf("index resurrected without rebuild: %v", st2.Index())
	}
	n, err := st2.RebuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("rebuilt %d entries, want 3", n)
	}
	if e := st2.Index()[Hash("k")]; e.Digest != "new" || e.Run != "r2" {
		t.Errorf("rebuild did not prefer the latest run: %+v", e)
	}
	if e := st2.Index()[Hash("only-r1")]; e.Digest != "d-r1" {
		t.Errorf("rebuild lost r1-only cell: %+v", e)
	}
	// Persisted: a fresh open sees the rebuilt index.
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st3.Index()) != 3 {
		t.Errorf("rebuilt index not persisted: %v", st3.Index())
	}
}

func TestDiff(t *testing.T) {
	old := map[string]string{"a": "1", "b": "2", "c": "3"}
	new := map[string]string{"a": "1", "b": "9", "d": "4"}
	diffs := Diff(old, new)
	want := []string{
		"changed: b (2 -> 9)",
		"new: d",
		"removed: c",
	}
	if len(diffs) != len(want) {
		t.Fatalf("diffs: %v", diffs)
	}
	for i := range want {
		if diffs[i] != want[i] {
			t.Errorf("diff %d: %q, want %q", i, diffs[i], want[i])
		}
	}
	if d := Diff(old, old); len(d) != 0 {
		t.Errorf("self-diff nonempty: %v", d)
	}
}

func TestHashStable(t *testing.T) {
	if Hash("x") != Hash("x") || len(Hash("x")) != 12 {
		t.Error("hash unstable or wrong width")
	}
	if Hash("x") == Hash("y") {
		t.Error("hash collision on trivial keys")
	}
}

func TestAppendFlushesThrough(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := st.Begin(Meta{Run: "r1", Partial: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Append(rec("a/x=1", "d1", 11)); err != nil {
		t.Fatal(err)
	}
	if err := rw.Append(rec("a/x=2", "d2", 12)); err != nil {
		t.Fatal(err)
	}
	// No Close: the writer is "SIGKILLed". Everything appended so far
	// must already be on disk.
	meta, recs, err := st.ReadRun("r1")
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Partial || meta.Seed != 3 {
		t.Errorf("meta not flushed: %+v", meta)
	}
	if len(recs) != 2 || recs[1].Digest != "d2" {
		t.Errorf("records not flushed: %+v", recs)
	}
}

func TestReadRunTolerantStopsAtTear(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := st.Begin(Meta{Run: "torn", Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Append(rec("a/x=1", "d1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := rw.Append(rec("a/x=2", "d2", 2)); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-record, the way a killed process does.
	path := filepath.Join(dir, "runs", "torn.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-15], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := st.ReadRun("torn"); err == nil {
		t.Fatal("strict ReadRun accepted a torn file")
	}
	meta, recs, dropped, err := st.ReadRunTolerant("torn")
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Partial {
		t.Errorf("meta lost: %+v", meta)
	}
	if len(recs) != 1 || recs[0].Key != "a/x=1" {
		t.Errorf("want the 1 intact record, got %+v", recs)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
}

func TestPartialRunsByPrefix(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	add := func(run string, partial bool) {
		t.Helper()
		rw, err := st.Begin(Meta{Run: run, Partial: partial})
		if err != nil {
			t.Fatal(err)
		}
		if err := rw.Append(rec("a/x=1", "d1", 1)); err != nil {
			t.Fatal(err)
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	add("run1-fleet", true)
	add("run1-s0of2", true)
	add("run2", false)
	add("run2-fleet", true)

	got, err := st.PartialRuns("run1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "run1-fleet" || got[1] != "run1-s0of2" {
		t.Errorf("PartialRuns(run1) = %v", got)
	}
	got, err = st.PartialRuns("run2")
	if err != nil {
		t.Fatal(err)
	}
	// The complete run2 is excluded; only its partial sibling matches.
	if len(got) != 1 || got[0] != "run2-fleet" {
		t.Errorf("PartialRuns(run2) = %v", got)
	}
}
