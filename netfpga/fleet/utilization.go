package fleet

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Utilization reports how a batch spent the pool's wall clock.
// Efficiency close to 1 means the pool stayed busy; a LongestShare near
// 1 with low Efficiency is the signature of a long device pinning one
// worker while the rest idle.
type Utilization struct {
	// Workers is the pool size; Jobs the batch size.
	Workers int
	Jobs    int
	// Wall is the batch's wall-clock time; Busy the per-worker
	// execution time (sum of its jobs).
	Wall time.Duration
	Busy []time.Duration
	// LongestJob is the job with the largest total execution time —
	// the batch's tail — and LongestBusy that time.
	LongestJob  string
	LongestBusy time.Duration

	mu sync.Mutex
}

func newUtilization(workers, jobs int) *Utilization {
	return &Utilization{Workers: workers, Jobs: jobs, Busy: make([]time.Duration, workers)}
}

// jobDone charges worker w the time it spent executing the named job.
func (u *Utilization) jobDone(w int, name string, busy time.Duration) {
	u.mu.Lock()
	u.Busy[w] += busy
	if busy > u.LongestBusy {
		u.LongestBusy, u.LongestJob = busy, name
	}
	u.mu.Unlock()
}

// BusyTotal returns the summed execution time across workers. Safe to
// call while the batch is still running.
func (u *Utilization) BusyTotal() time.Duration {
	u.mu.Lock()
	defer u.mu.Unlock()
	var total time.Duration
	for _, b := range u.Busy {
		total += b
	}
	return total
}

// Efficiency returns BusyTotal / (Workers x Wall): 1.0 is a perfectly
// packed pool.
func (u *Utilization) Efficiency() float64 {
	if u.Wall <= 0 || u.Workers == 0 {
		return 0
	}
	return float64(u.BusyTotal()) / (float64(u.Wall) * float64(u.Workers))
}

// LongestShare returns LongestBusy / Wall: how much of the batch's wall
// clock the single heaviest device accounts for.
func (u *Utilization) LongestShare() float64 {
	if u.Wall <= 0 {
		return 0
	}
	return float64(u.LongestBusy) / float64(u.Wall)
}

// String renders the report.
func (u *Utilization) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pool: %d workers, %d jobs, wall %v, busy %v (%.0f%% utilization)\n",
		u.Workers, u.Jobs, u.Wall.Round(time.Millisecond),
		u.BusyTotal().Round(time.Millisecond), 100*u.Efficiency())
	fmt.Fprintf(&b, "  longest device %q: %v busy (%.0f%% of wall)", u.LongestJob,
		u.LongestBusy.Round(time.Millisecond), 100*u.LongestShare())
	return b.String()
}
