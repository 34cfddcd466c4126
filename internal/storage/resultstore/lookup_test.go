package resultstore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/netfpga/sweep"
)

// writeRun is a test helper appending one complete run with the given
// meta and a single record per key.
func writeRun(t *testing.T, st *Store, meta Meta, keys ...string) {
	t.Helper()
	rw, err := st.Begin(meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := rw.Append(rec(k, "d-"+k, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMetaUtilRoundTrip: persisted utilization survives the JSONL run
// file byte-exactly — it is the run's record of where its cells went —
// and a run written before utilization-seeded scheduling was deleted
// (sched, sched_from, plan_hash, worker_util[].weight in its meta line)
// still decodes with every surviving field intact.
func TestMetaUtilRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	util := &sweep.UtilizationReport{Workers: 3, Jobs: 7, WallMS: 12.5,
		BusyMS: 30.25, CapacityMS: 37.5, Efficiency: 0.80667}
	wu := []WorkerUtil{
		{Name: "proc:0", Cells: 4, Util: sweep.UtilizationReport{Workers: 2, WallMS: 12.5, BusyMS: 20}},
		{Name: "tcp:h:1", Cells: 3, Util: sweep.UtilizationReport{Workers: 1, WallMS: 10, BusyMS: 10.25}},
	}
	writeRun(t, st, Meta{Run: "r1", Seed: 5, Transport: "proc+tcp", Requeued: 2,
		Util: util, WorkerUtil: wu}, "a")

	// r0 is the same run as the parent of PR 24 wrote it: the three
	// scheduling keys in the meta line and a weight on every worker.
	type oldWorkerUtil struct {
		WorkerUtil
		Weight float64 `json:"weight"`
	}
	type oldMeta struct {
		Meta
		Policy     string          `json:"sched,omitempty"`
		Donor      string          `json:"sched_from,omitempty"`
		Plan       string          `json:"plan_hash,omitempty"`
		WorkerUtil []oldWorkerUtil `json:"worker_util"`
	}
	om := oldMeta{Meta: Meta{Run: "r0", Seed: 5, Transport: "proc+tcp", Requeued: 2, Util: util},
		Policy: "seeded", Donor: "rX", Plan: "6f20a53d6054",
		WorkerUtil: []oldWorkerUtil{{wu[0], 1.37}, {wu[1], 0.63}}}
	old, err := json.Marshal(map[string]any{"meta": om})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"sched_from", "plan_hash", "weight"} {
		if !strings.Contains(string(old), `"`+key+`":`) {
			t.Fatalf("fixture lost its %s key: %s", key, old)
		}
	}
	old = append(old, "\n"+`{"cell":{"key":"a","digest":"d-a","seed":1}}`+"\n"...)
	if err := os.WriteFile(filepath.Join(st.Dir(), "runs", "r0.jsonl"), old, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, run := range []string{"r1", "r0"} {
		meta, recs, err := st.ReadRun(run)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Run != run || meta.Seed != 5 || meta.Transport != "proc+tcp" || meta.Requeued != 2 {
			t.Fatalf("%s: meta mangled: %+v", run, meta)
		}
		if meta.Util == nil || *meta.Util != *util {
			t.Fatalf("%s: util mangled: %+v vs %+v", run, meta.Util, util)
		}
		if len(meta.WorkerUtil) != 2 || meta.WorkerUtil[0] != wu[0] || meta.WorkerUtil[1] != wu[1] {
			t.Fatalf("%s: worker util mangled: %+v", run, meta.WorkerUtil)
		}
		if len(recs) != 1 || recs[0].Key != "a" || recs[0].Digest != "d-a" {
			t.Fatalf("%s: records mangled: %+v", run, recs)
		}
	}
}

func TestResolve(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, st, Meta{Run: "r1"},
		"T4/latency/frame=64", "T4/latency/frame=640", "T5/tput/frame=64")

	// Unique substring resolves.
	e, err := st.Resolve("frame=640")
	if err != nil || e.Key != "T4/latency/frame=640" {
		t.Fatalf("Resolve(frame=640) = %+v, %v", e, err)
	}

	// An exact key that prefixes another key must win, not be
	// ambiguous.
	e, err = st.Resolve("T4/latency/frame=64")
	if err != nil || e.Key != "T4/latency/frame=64" {
		t.Fatalf("exact key: %+v, %v", e, err)
	}

	// An exact scenario hash also wins.
	e, err = st.Resolve(Hash("T5/tput/frame=64"))
	if err != nil || e.Key != "T5/tput/frame=64" {
		t.Fatalf("exact hash: %+v, %v", e, err)
	}

	// Ambiguous substrings error out listing every candidate, sorted.
	_, err = st.Resolve("frame=64")
	var amb *AmbiguousError
	if !errors.As(err, &amb) {
		t.Fatalf("Resolve(frame=64) err = %v, want AmbiguousError", err)
	}
	if len(amb.Matches) != 3 {
		t.Fatalf("ambiguous matches = %+v, want 3", amb.Matches)
	}
	if amb.Matches[0].Key != "T4/latency/frame=64" || amb.Matches[2].Key != "T5/tput/frame=64" {
		t.Fatalf("matches unsorted: %+v", amb.Matches)
	}
	msg := err.Error()
	for _, k := range []string{"T4/latency/frame=64", "T4/latency/frame=640", "T5/tput/frame=64"} {
		if !strings.Contains(msg, k) || !strings.Contains(msg, Hash(k)) {
			t.Fatalf("error does not list %s with its hash: %s", k, msg)
		}
	}

	// No match is a plain error naming the query.
	if _, err := st.Resolve("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("Resolve(nope) err = %v", err)
	}
}
