package fleet

import (
	"fmt"
	"sort"
	"strings"
)

// Capacity weighting: turning persisted per-worker UtilizationReports
// from a previous run into relative scheduling weights for the next
// one. The derivation is a heuristic for placement only — weights may
// change which worker computes a cell, never what the cell computes,
// because cell seeds are a pure function of (BaseSeed, key).

// CapacityScore reduces one worker's utilization report to an absolute
// capacity estimate: busy-fraction x completed jobs per second of wall
// time. A worker that was mostly idle (low busy fraction) or slow (few
// jobs per second) scores low. Jobs are the only work unit a report
// carries: a session worker reports the cells it completed. Returns 0
// when the report carries no signal.
func CapacityScore(r UtilizationReport) float64 {
	if r.WallMS <= 0 || r.BusyMS <= 0 {
		return 0
	}
	capMS := r.capacityMS()
	if capMS <= 0 {
		return 0
	}
	if r.Jobs <= 0 {
		return 0
	}
	busyFrac := r.BusyMS / capMS
	if busyFrac > 1 {
		busyFrac = 1
	}
	rate := float64(r.Jobs) / (r.WallMS / 1000)
	return busyFrac * rate
}

// Weight clamp bounds: a worker is never trusted to be more than 4x or
// less than 1/4 the fleet mean, so one noisy run cannot starve or
// flood an endpoint.
const (
	minCapacityWeight = 0.25
	maxCapacityWeight = 4.0
)

// CapacityWeights converts per-worker reports into relative weights
// normalized to mean 1.0 and clamped to [0.25, 4]. Workers whose
// reports carry no signal (zero score) get weight 1.0 — unknown means
// average, not slow. Returns nil when no report carries signal, so
// callers fall back to uniform scheduling cleanly.
func CapacityWeights(reports map[string]UtilizationReport) map[string]float64 {
	scores := make(map[string]float64, len(reports))
	total, n := 0.0, 0
	for name, rep := range reports {
		if s := CapacityScore(rep); s > 0 {
			scores[name] = s
			total += s
			n++
		}
	}
	if n == 0 {
		return nil
	}
	mean := total / float64(n)
	weights := make(map[string]float64, len(reports))
	for name := range reports {
		w := 1.0
		if s, ok := scores[name]; ok {
			w = s / mean
			if w < minCapacityWeight {
				w = minCapacityWeight
			}
			if w > maxCapacityWeight {
				w = maxCapacityWeight
			}
		}
		weights[name] = w
	}
	return weights
}

// FormatWeights renders a weight map deterministically (sorted by
// worker name) for event streams and logs: "a=1.00 b=0.25 ...".
func FormatWeights(weights map[string]float64) string {
	names := make([]string, 0, len(weights))
	for name := range weights {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%.2f", name, weights[name])
	}
	return strings.Join(parts, " ")
}
