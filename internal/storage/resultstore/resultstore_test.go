package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/netfpga/sweep"
)

func rec(key, digest string, seed uint64) Record {
	return Record{
		Key: key, Digest: digest, Seed: seed,
		Values: map[string]float64{"v": 1.5},
		Labels: map[string]string{"l": "x"},
		SimPS:  123, Events: 9,
	}
}

// TestMetaDigestVersion: Begin stamps every run with the binary's
// digest version, whatever the caller's meta said, and LatestDigests
// leaves out, and counts, the cells whose latest run records none —
// written before versions were recorded, its digests differ from this
// binary's for the same result.
func TestMetaDigestVersion(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rw, err := st.Begin(Meta{Run: "r", Digest: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Append(rec("a/x=1", "d1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	meta, _, _, err := st.ReadRun("r")
	if err != nil || meta.Digest != sweep.DigestVersion {
		t.Fatalf("stored meta %+v, %v; want digest version %d", meta, err, sweep.DigestVersion)
	}
	old := `{"meta":{"run":"old","seed":0}}` + "\n" + `{"cell":{"key":"a/x=2","digest":"d2","seed":2,"sim_ps":5}}` + "\n"
	if err := os.WriteFile(st.runPath("old"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	latest, stale := st.LatestDigests()
	if len(latest) != 1 || latest["a/x=1"] != "d1" || stale != 1 {
		t.Errorf("latest digests %v, %d stale; want only a/x=1, 1 stale", latest, stale)
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

	meta, recs, dropped, err := st.ReadRun("r1")
	if err != nil || dropped != 0 {
		t.Fatal(dropped, err)
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

	// A reopened store finds the run's cells by key and by hash.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if key, err := st2.Resolve(Hash("a/x=1")); err != nil || key != "a/x=1" {
		t.Errorf("Resolve by hash: %q, %v", key, err)
	}
	latest, stale := st2.LatestDigests()
	if latest["a/x=1"] != "d1" || latest["a/x=2"] != "d2" || stale != 0 {
		t.Errorf("latest digests broken: %v (%d stale)", latest, stale)
	}

	runs, err := st2.Runs()
	if err != nil || len(runs) != 1 || runs[0] != "r1" {
		t.Errorf("runs listing: %v %v", runs, err)
	}
}

// TestIndexTracksLatestRun: after a later run stores a cell again, the
// store's latest digest for it, and the key its hash resolves to, come
// from that run, while the earlier run keeps its own digest.
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
	if latest, stale := st.LatestDigests(); latest["k"] != "new" || stale != 0 {
		t.Errorf("latest digest not the later run's: %v (%d stale)", latest, stale)
	}
	if key, err := st.Resolve(Hash("k")); err != nil || key != "k" {
		t.Errorf("Resolve(Hash(k)) = %q, %v", key, err)
	}

	_, d1, err := st.RunDigests("r1")
	if err != nil || d1["k"] != "old" {
		t.Errorf("historic run digests lost: %v %v", d1, err)
	}
}

// TestRebuildIndex: the latest digests are rebuilt from the run files
// alone. A fresh Open of the same directory, with no index beside the
// runs, recovers exactly the state the writing store reported: the
// later run's digest for a shared cell, each run's own cells, and
// nothing from a partial run.
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

	want := map[string]string{"k": "new", "only-r1": "d-r1", "only-r2": "d-r2"}
	before, _ := st.LatestDigests()
	if !reflect.DeepEqual(before, want) {
		t.Fatalf("latest digests %v, want %v", before, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); !os.IsNotExist(err) {
		t.Errorf("store wrote an index beside its runs: %v", err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after, stale := st2.LatestDigests(); !reflect.DeepEqual(after, before) || stale != 0 {
		t.Errorf("reopened store: %v (%d stale), want %v", after, stale, before)
	}
}

// TestLatestIsGreatestRunID: a cell's latest digest is the one in the
// complete run with the greatest run id that holds it, whatever order
// the runs were written in. A cell whose latest run is of another
// digest version is left out and counted stale, a partial run never
// counts, every run keeps its own digests, and Open ignores the index
// file an older binary kept beside the runs, even a corrupt one.
func TestLatestIsGreatestRunID(t *testing.T) {
	type run struct {
		id       string
		partial  bool
		version1 bool // a meta line without a digest version
		cells    map[string]string
	}
	for _, tc := range []struct {
		name   string
		runs   []run // in write order
		legacy bool  // copy testdata/legacy's files into the store
		want   map[string]string
		stale  int
	}{
		{name: "later run of another digest version is stale",
			runs: []run{{id: "r1", cells: map[string]string{"k": "d1", "a": "d-a"}},
				{id: "r2", version1: true, cells: map[string]string{"k": "v1"}}},
			want: map[string]string{"a": "d-a"}, stale: 1},
		{name: "current run after a stale one",
			runs: []run{{id: "r1", version1: true, cells: map[string]string{"k": "v1", "x": "v1x"}},
				{id: "r2", cells: map[string]string{"k": "d2"}}},
			want: map[string]string{"k": "d2"}, stale: 1},
		{name: "partial run ignored",
			runs: []run{{id: "r1", cells: map[string]string{"k": "d1"}},
				{id: "r2-fleet", partial: true, cells: map[string]string{"k": "p", "n": "p"}}},
			want: map[string]string{"k": "d1"}},
		{name: "run-id order, not write order",
			runs: []run{{id: "zz", cells: map[string]string{"k": "from-zz"}},
				{id: "aa", cells: map[string]string{"k": "from-aa", "b": "d-b"}}},
			want: map[string]string{"k": "from-zz", "b": "d-b"}},
		{name: "garbage index file ignored", legacy: true,
			runs: []run{{id: "r1", cells: map[string]string{"k": "d1"}}},
			want: map[string]string{"k": "d1"}},
	} {
		dir := t.TempDir()
		if tc.legacy {
			files, err := os.ReadDir(filepath.Join("testdata", "legacy"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				data, err := os.ReadFile(filepath.Join("testdata", "legacy", f.Name()))
				if err == nil {
					err = os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, r := range tc.runs {
			if r.version1 {
				data := fmt.Sprintf("{\"meta\":{\"run\":%q,\"seed\":0}}\n", r.id)
				for k, d := range r.cells {
					data += fmt.Sprintf("{\"cell\":{\"key\":%q,\"digest\":%q,\"seed\":1}}\n", k, d)
				}
				if err := os.WriteFile(filepath.Join(dir, "runs", r.id+".jsonl"), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			rw, err := st.Begin(Meta{Run: r.id, Partial: r.partial})
			if err != nil {
				t.Fatal(err)
			}
			for k, d := range r.cells {
				if err := rw.Append(rec(k, d, 1)); err != nil {
					t.Fatal(err)
				}
			}
			if err := rw.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if latest, stale := st.LatestDigests(); !reflect.DeepEqual(latest, tc.want) || stale != tc.stale {
			t.Errorf("%s: latest %v, %d stale; want %v, %d stale", tc.name, latest, stale, tc.want, tc.stale)
		}
		for _, r := range tc.runs {
			if _, got, err := st.RunDigests(r.id); err != nil || !reflect.DeepEqual(got, r.cells) {
				t.Errorf("%s: run %s digests %v, %v; want %v", tc.name, r.id, got, err, r.cells)
			}
		}
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
	if _, _, dropped, err := st.ReadRun("bad"); err != nil || dropped != 1 {
		t.Errorf("corrupt line not counted: %d dropped, %v", dropped, err)
	}
	if _, _, err := st.RunDigests("bad"); err == nil || !strings.Contains(err.Error(), "bad line 2") {
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
// partial runs fold into one complete run; partials never count as
// latest; identical overlaps dedup.
func TestMergePartialRuns(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writePartial(t, st, "m-s0", "0/2", rec("a/x=1", "d1", 11), rec("a/x=3", "d3", 13))
	writePartial(t, st, "m-s1", "1/2", rec("a/x=2", "d2", 12),
		// Identical overlap with shard 0 (e.g. a retried cell): legal.
		rec("a/x=1", "d1", 11))
	if latest, stale := st.LatestDigests(); len(latest) != 0 || stale != 0 {
		t.Fatalf("partial runs count as latest: %v, %d stale", latest, stale)
	}

	expect := []string{"a/x=1", "a/x=2", "a/x=3"}
	n, err := st.MergeRuns(Meta{Run: "m", Name: "demo", Seed: 7}, []string{"m-s0", "m-s1"}, expect)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("merged %d cells, want 3", n)
	}
	meta, recs, _, err := st.ReadRun("m")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Partial || meta.Name != "demo" {
		t.Errorf("merged meta mangled: %+v", meta)
	}
	if len(recs) != 3 || recs[0].Key != "a/x=1" || recs[1].Key != "a/x=2" || recs[2].Key != "a/x=3" {
		t.Errorf("merged records wrong: %+v", recs)
	}
	// Only the merged run is complete, and it holds every key.
	if runs, err := st.Runs(); err != nil || len(runs) != 1 || runs[0] != "m" {
		t.Errorf("complete runs %v, %v; want only m", runs, err)
	}
	want := map[string]string{"a/x=1": "d1", "a/x=2": "d2", "a/x=3": "d3"}
	if latest, stale := st.LatestDigests(); !reflect.DeepEqual(latest, want) || stale != 0 {
		t.Errorf("latest digests %v, %d stale; want %v", latest, stale, want)
	}
	// The partial inputs are still on disk, untouched.
	if files, _ := os.ReadDir(filepath.Join(st.Dir(), "runs")); len(files) != 3 {
		t.Errorf("append-only violated: %d run files", len(files))
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
	meta, _, _, err := st.ReadRun("f")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Transport != "proc+tcp" || meta.Requeued != 2 {
		t.Errorf("fleet provenance mangled: %+v", meta)
	}
	// In-process runs carry no transport noise in their meta lines.
	pm, _, _, err := st.ReadRun("f-part")
	if err != nil {
		t.Fatal(err)
	}
	if pm.Transport != "" || pm.Requeued != 0 {
		t.Errorf("partial grew provenance it never had: %+v", pm)
	}
}

// TestMergeCopiesStoredBytes: a merge of two parts holding escaped keys
// and labels, -0, 1e21, an error string and an identical overlap writes
// the run byte for byte as the merge that decoded and re-encoded every
// record did (testdata/merge, written by that code), and its keys and
// digests read back as the latest.
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
	g, err := os.ReadFile(st.runPath("fx"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(filepath.Join("testdata", "merge", "fx.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Errorf("fx.jsonl differs from testdata/merge/fx.jsonl:\n got %s\nwant %s", g, w)
	}
	want := map[string]string{"mid": "d5", "plain/k=2": "d2", `T<1>/a&b="q"/ü`: "d1", "alpha/<x>": "d4", "zeta/ü": "d3"}
	if latest, stale := st.LatestDigests(); !reflect.DeepEqual(latest, want) || stale != 0 {
		t.Errorf("latest digests %v, %d stale; want %v", latest, stale, want)
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
	// The failed merges must not have left their targets behind.
	for _, run := range []string{"c", "p", "t", "e"} {
		if _, err := os.Stat(st.runPath(run)); !os.IsNotExist(err) {
			t.Errorf("failed merge left run %s (%v)", run, err)
		}
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
	meta, recs, _, err := st.ReadRun("r1")
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

// TestReadRunStopsAtTear: ReadRun returns the records above a torn
// line and counts the tear; RunDigests, the strict reader, fails on it.
func TestReadRunStopsAtTear(t *testing.T) {
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

	if _, _, err := st.RunDigests("torn"); err == nil {
		t.Fatal("RunDigests accepted a torn file")
	}
	meta, recs, dropped, err := st.ReadRun("torn")
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
