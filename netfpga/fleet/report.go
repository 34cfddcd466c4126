package fleet

import "time"

// UtilizationReport is the serializable snapshot of a Utilization —
// what a distributed worker ships across a process or network boundary
// so its coordinator can merge remote pool health into the run's
// record. Durations flatten to milliseconds: the report is read by
// humans, not an accounting ledger, and a stable flat encoding keeps
// the wire format independent of Go's duration representation.
type UtilizationReport struct {
	Workers int     `json:"workers"`
	Jobs    int     `json:"jobs"`
	WallMS  float64 `json:"wall_ms"`
	BusyMS  float64 `json:"busy_ms"`
	// CapacityMS is the worker-milliseconds this report had available:
	// workers x wall for a single pool, and the sum of the sources'
	// capacities after a Merge. It is the efficiency denominator — kept
	// explicit so merging reports with different lifetimes stays
	// duration-weighted instead of charging every pool for the longest
	// pool's wall.
	CapacityMS float64 `json:"capacity_ms,omitempty"`
	LongestJob string  `json:"longest_job,omitempty"`
	LongestMS  float64 `json:"longest_ms,omitempty"`
	Efficiency float64 `json:"efficiency"`
}

// Report snapshots the utilization for the wire. Safe to call while the
// batch is still running (a worker reports mid-batch health to its
// coordinator); Wall and Efficiency are only meaningful once the batch
// has completed and Wall is stamped.
func (u *Utilization) Report() UtilizationReport {
	if u == nil {
		return UtilizationReport{}
	}
	busy := u.BusyTotal()
	u.mu.Lock()
	defer u.mu.Unlock()
	wallMS := float64(u.Wall) / float64(time.Millisecond)
	return UtilizationReport{
		Workers:    u.Workers,
		Jobs:       u.Jobs,
		WallMS:     wallMS,
		CapacityMS: wallMS * float64(u.Workers),
		BusyMS:     float64(busy) / float64(time.Millisecond),
		LongestJob: u.LongestJob,
		LongestMS:  float64(u.LongestBusy) / float64(time.Millisecond),
		Efficiency: efficiencyLocked(u.Wall, u.Workers, busy),
	}
}

// Merge folds another report into r — the coordinator's aggregation of
// per-worker reports into one fleet-wide view. Worker and job counts
// sum; busy time sums; wall takes the max (workers run concurrently);
// the longest job is the longest anywhere in the fleet. Efficiency is
// duration-weighted: each source contributes its own workers x wall
// capacity, so a worker that joined late (or died early) is not charged
// idle time for intervals in which it did not exist.
func (r *UtilizationReport) Merge(o UtilizationReport) {
	cap := r.capacityMS() + o.capacityMS()
	r.Workers += o.Workers
	r.Jobs += o.Jobs
	if o.WallMS > r.WallMS {
		r.WallMS = o.WallMS
	}
	r.BusyMS += o.BusyMS
	r.CapacityMS = cap
	if o.LongestMS > r.LongestMS {
		r.LongestMS, r.LongestJob = o.LongestMS, o.LongestJob
	}
	if cap > 0 {
		r.Efficiency = r.BusyMS / cap
	}
}

// capacityMS resolves the report's worker-millisecond capacity, falling
// back to workers x wall for reports written before CapacityMS existed
// (or hand-built fixtures that leave it zero).
func (r *UtilizationReport) capacityMS() float64 {
	if r.CapacityMS > 0 {
		return r.CapacityMS
	}
	return r.WallMS * float64(r.Workers)
}

// efficiencyLocked computes busy / (workers x wall) without re-locking.
func efficiencyLocked(wall time.Duration, workers int, busy time.Duration) float64 {
	if wall <= 0 || workers == 0 {
		return 0
	}
	return float64(busy) / (float64(wall) * float64(workers))
}
