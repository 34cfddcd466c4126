package resultstore

import (
	"errors"
	"strings"
	"testing"

	"repro/netfpga/fleet"
)

func TestPlanHashOrderIndependent(t *testing.T) {
	a := PlanHash([]string{"T1/x=1", "T1/x=2", "T2/y=3"})
	b := PlanHash([]string{"T2/y=3", "T1/x=1", "T1/x=2"})
	if a != b {
		t.Fatalf("plan hash depends on key order: %s vs %s", a, b)
	}
	if a == PlanHash([]string{"T1/x=1", "T1/x=2"}) {
		t.Fatal("different plans share a hash")
	}
	if len(a) != 12 {
		t.Fatalf("plan hash %q not 12 hex digits", a)
	}
}

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

func TestLatestCapacity(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanHash([]string{"a", "b"})
	util := &fleet.UtilizationReport{Workers: 2, WallMS: 100, BusyMS: 150, Jobs: 2}
	wu := []WorkerUtil{{Name: "proc:0", Cells: 2, Weight: 1,
		Util: fleet.UtilizationReport{Workers: 1, WallMS: 100, BusyMS: 90, Jobs: 40}}}

	// Nothing stored yet: no capacity, no error.
	if cap, err := st.LatestCapacity(plan, "proc"); err != nil || cap != nil {
		t.Fatalf("empty store: cap=%v err=%v", cap, err)
	}

	writeRun(t, st, Meta{Run: "r1", PlanHash: plan, Transport: "proc",
		Sched: "uniform", Util: util, WorkerUtil: wu}, "a", "b")
	// Wrong transport and wrong plan must not match.
	writeRun(t, st, Meta{Run: "r2", PlanHash: plan, Transport: "tcp",
		Util: util, WorkerUtil: wu}, "a", "b")
	writeRun(t, st, Meta{Run: "r3", PlanHash: "000000000000", Transport: "proc",
		Util: util, WorkerUtil: wu}, "c")
	// A matching run without utilization carries no signal.
	writeRun(t, st, Meta{Run: "r4", PlanHash: plan, Transport: "proc"}, "a", "b")

	cap, err := st.LatestCapacity(plan, "proc")
	if err != nil {
		t.Fatal(err)
	}
	if cap == nil || cap.Run != "r1" || cap.Sched != "uniform" {
		t.Fatalf("capacity = %+v, want run r1", cap)
	}
	if cap.Util == nil || cap.Util.BusyMS != 150 {
		t.Fatalf("capacity util = %+v", cap.Util)
	}
	reps := cap.WorkerReports()
	if len(reps) != 1 || reps["proc:0"].Jobs != 40 {
		t.Fatalf("worker reports = %+v", reps)
	}

	// A newer matching run with utilization wins.
	writeRun(t, st, Meta{Run: "r5", PlanHash: plan, Transport: "proc",
		Sched: "seeded", SchedFrom: "r1", Util: util, WorkerUtil: wu}, "a", "b")
	cap, err = st.LatestCapacity(plan, "proc")
	if err != nil || cap == nil || cap.Run != "r5" {
		t.Fatalf("latest capacity = %+v err=%v, want r5", cap, err)
	}

	// Nil-capacity WorkerReports degrades to uniform cleanly.
	if (*Capacity)(nil).WorkerReports() != nil {
		t.Fatal("nil capacity should yield nil reports")
	}
}

// TestMetaUtilRoundTrip: persisted utilization survives the JSONL run
// file byte-exactly — it is the next run's scheduling input.
func TestMetaUtilRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	util := &fleet.UtilizationReport{Workers: 3, Jobs: 7, WallMS: 12.5,
		BusyMS: 30.25, CapacityMS: 37.5, Efficiency: 0.80667}
	wu := []WorkerUtil{
		{Name: "proc:0", Cells: 4, Weight: 1.5, Util: fleet.UtilizationReport{Workers: 2, WallMS: 12.5, BusyMS: 20}},
		{Name: "tcp:h:1", Cells: 3, Weight: 0.5, Util: fleet.UtilizationReport{Workers: 1, WallMS: 10, BusyMS: 10.25}},
	}
	writeRun(t, st, Meta{Run: "r1", PlanHash: "abc", Sched: "seeded",
		SchedFrom: "r0", Util: util, WorkerUtil: wu}, "a")

	meta, _, err := st.ReadRun("r1")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Sched != "seeded" || meta.SchedFrom != "r0" || meta.PlanHash != "abc" {
		t.Fatalf("sched meta mangled: %+v", meta)
	}
	if meta.Util == nil || *meta.Util != *util {
		t.Fatalf("util mangled: %+v vs %+v", meta.Util, util)
	}
	if len(meta.WorkerUtil) != 2 || meta.WorkerUtil[0] != wu[0] || meta.WorkerUtil[1] != wu[1] {
		t.Fatalf("worker util mangled: %+v", meta.WorkerUtil)
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
