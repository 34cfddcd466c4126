package fleet

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestUtilizationReport sanity-checks the report's arithmetic on a
// real batch.
func TestUtilizationReport(t *testing.T) {
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = switchJob(fmt.Sprintf("u%d", i))
	}
	r := &Runner{Workers: 3, BaseSeed: 1}
	if got := r.Utilization(); got != nil {
		t.Fatalf("utilization before any batch: %v", got)
	}
	r.RunAll(context.Background(), jobs)
	u := r.Utilization()
	if u == nil {
		t.Fatal("no utilization after batch")
	}
	if u.Workers != 3 || u.Jobs != 6 {
		t.Fatalf("report shape: %+v", u)
	}
	if u.Wall <= 0 || u.BusyTotal() <= 0 {
		t.Fatalf("empty timings: wall=%v busy=%v", u.Wall, u.BusyTotal())
	}
	if eff := u.Efficiency(); eff <= 0 || eff > 1.5 {
		t.Errorf("implausible efficiency %.2f", eff)
	}
	if u.LongestJob == "" || u.LongestBusy <= 0 {
		t.Errorf("longest-job tracking empty: %q %v", u.LongestJob, u.LongestBusy)
	}
	if !strings.Contains(u.String(), "pool: 3 workers, 6 jobs") {
		t.Errorf("report rendering: %q", u.String())
	}
}
