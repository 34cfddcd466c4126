package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
)

// TestUtilizationWireReport: a completed batch's report round-trips through
// JSON and carries the numbers the coordinator's capacity weights read.
func TestUtilizationWireReport(t *testing.T) {
	r := &Runner{Workers: 2, BaseSeed: 1}
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = switchJob(fmt.Sprintf("r%d", i))
	}
	r.RunAll(context.Background(), jobs)
	rep := r.Utilization().Report()
	if rep.Workers != 2 || rep.Jobs != 4 {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.WallMS <= 0 || rep.BusyMS <= 0 {
		t.Fatalf("report empty: %+v", rep)
	}
	if rep.Efficiency <= 0 || rep.Efficiency > 1.0001 {
		t.Fatalf("efficiency out of range: %v", rep.Efficiency)
	}

	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back UtilizationReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != rep {
		t.Fatalf("report did not survive JSON: %+v vs %+v", back, rep)
	}

	var nilU *Utilization
	if got := nilU.Report(); got != (UtilizationReport{}) {
		t.Fatalf("nil utilization report: %+v", got)
	}
}

// TestUtilizationReportMerge: the coordinator's fleet-wide aggregation
// sums capacity and work, takes concurrent wall as the max, and tracks
// the fleet-wide longest job.
func TestUtilizationReportMerge(t *testing.T) {
	a := UtilizationReport{Workers: 2, Jobs: 10, WallMS: 100, BusyMS: 150,
		LongestJob: "a", LongestMS: 40}
	b := UtilizationReport{Workers: 4, Jobs: 6, WallMS: 80, BusyMS: 200,
		LongestJob: "b", LongestMS: 70}
	a.Merge(b)
	if a.Workers != 6 || a.Jobs != 16 {
		t.Fatalf("capacity sums: %+v", a)
	}
	if a.WallMS != 100 || a.BusyMS != 350 {
		t.Fatalf("work totals: %+v", a)
	}
	if a.LongestJob != "b" || a.LongestMS != 70 {
		t.Fatalf("longest: %+v", a)
	}
	// Duration-weighted: each source contributes its own workers x wall
	// capacity (2x100 + 4x80), not max-wall x total-workers.
	if a.CapacityMS != 2*100.0+4*80.0 {
		t.Fatalf("capacity %v, want 520", a.CapacityMS)
	}
	want := 350.0 / 520.0
	if diff := a.Efficiency - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("efficiency %v, want %v", a.Efficiency, want)
	}
}

// TestUtilizationMergeDurationWeighted is the asymmetric-load fixture:
// worker A runs 100ms fully busy, worker B lives only 10ms at half
// load. The merged efficiency must weight each worker by its own
// lifetime — charging B for A's whole wall (the old behaviour) would
// report 105/200 = 0.525 for a fleet that was in fact 105/110 busy.
func TestUtilizationMergeDurationWeighted(t *testing.T) {
	a := UtilizationReport{Workers: 1, Jobs: 8, WallMS: 100, BusyMS: 100, Efficiency: 1}
	b := UtilizationReport{Workers: 1, Jobs: 1, WallMS: 10, BusyMS: 5, Efficiency: 0.5}
	a.Merge(b)
	want := 105.0 / 110.0
	if diff := a.Efficiency - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("efficiency %v, want %v (duration-weighted)", a.Efficiency, want)
	}
	if a.WallMS != 100 || a.Workers != 2 || a.Jobs != 9 {
		t.Fatalf("merged header: %+v", a)
	}

	// Merging into a zero report preserves the source's own weighting.
	var z UtilizationReport
	z.Merge(UtilizationReport{Workers: 2, WallMS: 50, BusyMS: 60})
	if diff := z.Efficiency - 0.6; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("zero-merge efficiency %v, want 0.6", z.Efficiency)
	}
}
