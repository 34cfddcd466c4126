package experiments

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/netfpga/sweep"
)

const hybridGoldenPath = "testdata/golden_hybrid.json"

// hybridLatencyTol bounds the relative error hybrid fidelity may show
// against full fidelity on latency percentiles (p50/p95/p99/mean/max).
// Calibrated on examples/hybrid.sweep's HYLAT cell (seed 1): observed
// errors are 1.7% at p50, 9.1% at p95 and 12% at p99/max — the bound
// doubles the worst of those. The residual comes from the model's two
// documented approximations: a gap's background aggregate is offered at
// the gap start instead of trickling in across it, and a foreground
// frame's wait is the backlog clear-time captured at enqueue while the
// real queue interleaves per-beat.
const hybridLatencyTol = 0.25

// hybridGroups loads the calibration matrix config — the same file the
// CI sweep-hybrid gate runs — and resolves it to runnable groups. Every
// scenario crosses fidelities ["full", "hybrid"] with explicit seeds,
// so cells pair exactly (same key minus the fid component, same RNG
// stream) and full/hybrid comparisons need no re-derivation.
func hybridGroups(t *testing.T) []sweep.Group {
	t.Helper()
	cfg, err := sweep.LoadConfig(filepath.Join("..", "..", "examples", "hybrid.sweep"))
	if err != nil {
		t.Fatalf("loading hybrid sweep config: %v", err)
	}
	groups := cfg.ScenarioGroups()
	if len(groups) == 0 {
		t.Fatal("hybrid config has no scenarios")
	}
	return groups
}

// TestGoldenHybrid is the hybrid-fidelity twin of TestGoldenSweep:
// every cell of the calibration matrix (both fidelities) runs at worker
// counts 1 and 4, the runs must produce byte-identical per-cell
// digests and equal event counts, and the digests and event counts must match the checked-in
// golden table.
// The full-fidelity cells inside this matrix double as a coupling
// no-op check: their digests must never move when the hybrid model
// changes. Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestGoldenHybrid -update
func TestGoldenHybrid(t *testing.T) {
	groups := hybridGroups(t)

	var results []*sweep.Results
	for _, workers := range []int{1, 4} {
		r := &sweep.Runner{Workers: workers, BaseSeed: 0}
		rs, err := sweep.RunGroups(context.Background(), r, groups, "")
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, f := range rs.Failed() {
			t.Errorf("workers=%d: cell %s failed: %s", workers, f.Cell.Key, f.Err)
		}
		results = append(results, rs)
	}
	if t.Failed() {
		t.FailNow()
	}

	base := results[0]
	for i := range results[1].Cells {
		if results[1].Cells[i].Digest != base.Cells[i].Digest || results[1].Cells[i].Events != base.Cells[i].Events {
			t.Errorf("cell %s diverges between workers=1 and workers=4",
				results[1].Cells[i].Cell.Key)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	if *update {
		note := "regenerate with: go test ./internal/experiments -run TestGoldenHybrid -update"
		if err := os.MkdirAll(filepath.Dir(hybridGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := sweep.WriteGolden(hybridGoldenPath, sweep.NewGolden(note, 0, base)); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells)", hybridGoldenPath, len(base.Cells))
		return
	}

	g, err := sweep.ReadGolden(hybridGoldenPath)
	if err != nil {
		t.Fatalf("reading hybrid golden (run with -update to create): %v", err)
	}
	for _, d := range sweep.DiffGolden(g, base, false) {
		t.Errorf("hybrid golden mismatch:\n  %s", d)
	}
	for _, d := range eventDiffs(g, base) {
		t.Errorf("engine event count moved: %s", d)
	}
	if t.Failed() {
		t.Log("if the change is intentional, regenerate with -update")
	}
}

// TestHybridCalibration is the error-bound gate of the hybrid
// equivalence argument. It runs the calibration matrix once and pairs
// each hybrid cell with its full-fidelity twin (same key minus the fid
// component, same explicit seed, so both fidelities draw the identical
// workload stream), then asserts:
//
//   - Conservation is exact: on every hybrid cell the background
//     model's offered == delivered + dropped, in frames and in bytes.
//   - Traffic totals are exact: sent, rx_frames, rx_bytes, drops and
//     fcs_errors match the full-fidelity twin bit for bit — the
//     analytic model must not create or lose a single frame or byte
//     relative to cycle-accurate execution.
//   - Latency is bounded: p50/p95/p99/mean/max relative error is
//     within hybridLatencyTol (see its comment for the calibration).
func TestHybridCalibration(t *testing.T) {
	groups := hybridGroups(t)
	r := &sweep.Runner{Workers: 1, BaseSeed: 0}
	rs, err := sweep.RunGroups(context.Background(), r, groups, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rs.Failed() {
		t.Fatalf("cell %s failed: %s", f.Cell.Key, f.Err)
	}

	byKey := make(map[string]map[string]float64, len(rs.Cells))
	for i := range rs.Cells {
		byKey[rs.Cells[i].Cell.Key] = rs.Cells[i].Values
	}

	// Exact-match keys: integral frame/byte counters and their direct
	// derivations. Everything here is conserved by construction in the
	// model, so any drift is a real coupling bug, not noise.
	exact := []string{"sent", "rx_frames", "rx_bytes", "goodput_gbps", "drops", "fcs_errors", "probes"}
	bounded := []string{"latency_p50_ps", "latency_p95_ps", "latency_p99_ps", "latency_mean_ps", "latency_max_ps"}

	pairs := 0
	for key, hv := range byKey {
		if !strings.Contains(key, "/fid=hybrid") {
			continue
		}
		fullKey := strings.Replace(key, "/fid=hybrid", "/fid=full", 1)
		fv, ok := byKey[fullKey]
		if !ok {
			t.Fatalf("hybrid cell %s has no full-fidelity twin", key)
		}
		pairs++

		for _, pair := range [][2]string{
			{"bg_offered_frames", "bg_delivered_frames"},
			{"bg_offered_bytes", "bg_delivered_bytes"},
		} {
			off := hv[pair[0]]
			del := hv[pair[1]]
			drp := hv[strings.Replace(pair[0], "offered", "dropped", 1)]
			if off != del+drp {
				t.Errorf("%s: %s=%v != delivered %v + dropped %v — conservation broken",
					key, pair[0], off, del, drp)
			}
		}

		for _, k := range exact {
			f, okF := fv[k]
			h, okH := hv[k]
			if okF != okH {
				t.Errorf("%s: value %s present in only one fidelity", key, k)
				continue
			}
			if okF && f != h {
				t.Errorf("%s: %s full=%v hybrid=%v — must be exact", key, k, f, h)
			}
		}

		for _, k := range bounded {
			f, ok := fv[k]
			if !ok || f == 0 {
				continue
			}
			rel := math.Abs(hv[k]-f) / math.Abs(f)
			if rel > hybridLatencyTol {
				t.Errorf("%s: %s full=%v hybrid=%v rel=%.3f exceeds tolerance %.2f",
					key, k, f, hv[k], rel, hybridLatencyTol)
			}
		}
	}
	if pairs == 0 {
		t.Fatal("calibration matrix produced no full/hybrid pairs")
	}
}

// TestHybridSpeedup pins the tentpole's perf claim at a conservative
// floor: on a background-heavy cell (63 of 64 flows background, 20 ms
// window) hybrid fidelity must run at least 3x faster than full
// fidelity in wall-clock. It is the one speed check hybrid has: it
// keeps the fast path from silently degenerating into the slow one.
func TestHybridSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison is slow")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the wall-clock ratio")
	}
	run := func(fid string) time.Duration {
		spec := sweep.Spec{
			Name:       "SPD",
			Boards:     []string{"sume"},
			Projects:   []string{"reference_switch"},
			Workloads:  []sweep.Workload{{Name: "bg63of64", Flows: 64, Background: 63}},
			Seeds:      []uint64{1},
			Fidelities: []string{fid},
			WindowUS:   20000,
		}
		groups := []sweep.Group{{Spec: spec, Measure: sweep.GenericMeasure}}
		start := time.Now()
		rs, err := sweep.RunGroups(context.Background(), &sweep.Runner{Workers: 1}, groups, "")
		if err != nil {
			t.Fatalf("fid=%s: %v", fid, err)
		}
		for _, f := range rs.Failed() {
			t.Fatalf("fid=%s: cell %s failed: %s", fid, f.Cell.Key, f.Err)
		}
		return time.Since(start)
	}

	// Hybrid first so full pays any one-time warmup cost, biasing the
	// ratio against the claim.
	hybrid := run("hybrid")
	full := run("full")
	if hybrid <= 0 {
		return // immeasurably fast: trivially a speedup
	}
	if ratio := float64(full) / float64(hybrid); ratio < 3 {
		t.Errorf("hybrid speedup %.1fx (full %v, hybrid %v), want >= 3x", ratio, full, hybrid)
	}
}
