package sweep

import "time"

// Utilization reports how a batch spent the pool's wall clock. It is
// filled once, when the batch ends. Efficiency close to 1 means the pool
// stayed busy; a LongestBusy near Wall with low Efficiency is the
// signature of a long device pinning one worker while the rest idle.
type Utilization struct {
	// Workers is the pool size; Jobs the batch's cell count.
	Workers int
	Jobs    int
	// Wall is the batch's wall-clock time; Busy the per-worker
	// execution time (sum of its cells).
	Wall time.Duration
	Busy []time.Duration
	// LongestJob is the key of the cell with the largest execution
	// time — the batch's tail — and LongestBusy that time.
	LongestJob  string
	LongestBusy time.Duration
}

// Efficiency returns busy / (workers x wall): 1.0 is a perfectly packed
// pool.
func (u *Utilization) Efficiency() float64 { return u.Report().Efficiency }

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

// WorkerReport is one fleet endpoint's session outcome: how many cells
// it completed and its own pool utilization. A fleet reports one per
// endpoint, and a stored run's meta keeps them.
type WorkerReport struct {
	// Name is the endpoint name (stable across runs for a given fleet
	// topology: "proc:0", "tcp:host:port", ...).
	Name string `json:"name"`
	// Cells is how many cells the worker completed.
	Cells int `json:"cells"`
	// Util is the worker's own session utilization report.
	Util UtilizationReport `json:"util"`
}

// Report snapshots the utilization for the wire (the zero report for a
// nil Utilization).
func (u *Utilization) Report() UtilizationReport {
	if u == nil {
		return UtilizationReport{}
	}
	var busy time.Duration
	for _, b := range u.Busy {
		busy += b
	}
	r := UtilizationReport{Workers: u.Workers, Jobs: u.Jobs, WallMS: ms(u.Wall), BusyMS: ms(busy),
		LongestJob: u.LongestJob, LongestMS: ms(u.LongestBusy)}
	r.setCapacity(r.WallMS * float64(r.Workers))
	return r
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Merge folds another report into r — the coordinator's aggregation of
// per-worker reports into one fleet-wide view. Worker and job counts
// sum; busy time sums; wall takes the max (workers run concurrently);
// the longest job is the longest anywhere in the fleet. Efficiency is
// duration-weighted: each source contributes its own workers x wall
// capacity, so a worker that joined late (or died early) is not charged
// idle time for intervals in which it did not exist.
func (r *UtilizationReport) Merge(o UtilizationReport) {
	capMS := r.capacityMS() + o.capacityMS()
	r.Workers += o.Workers
	r.Jobs += o.Jobs
	r.WallMS = max(r.WallMS, o.WallMS)
	r.BusyMS += o.BusyMS
	if o.LongestMS > r.LongestMS {
		r.LongestMS, r.LongestJob = o.LongestMS, o.LongestJob
	}
	r.setCapacity(capMS)
}

// setCapacity sets the report's capacity and, from it and BusyMS, its
// efficiency: the one utilization formula (0 without capacity).
func (r *UtilizationReport) setCapacity(capMS float64) {
	r.CapacityMS, r.Efficiency = capMS, 0
	if capMS > 0 {
		r.Efficiency = r.BusyMS / capMS
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
