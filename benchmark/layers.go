package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// div is a/b, or 0 when nothing was counted.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues turns what one traced rep recorded into per-layer values.
func layerValues(in *instance, w work, wallS float64, tot map[string]total, dc devCounts,
	gauges map[string]float64, m0, m1 *runtime.MemStats) map[string]float64 {

	// Engine time is the RunFor/RunUntilIdle spans where the benchmark
	// owns the driver, and the whole Measure call where shipped code does.
	runNS := float64(dc.measureNS)
	if t, ok := tot["sim.run"]; ok {
		runNS = float64(t.ns)
	}
	v := map[string]float64{
		"sim.events":            w.events,
		"sim.host_ns_per_event": div(runNS, w.events),
		"sim.edge_exec_ratio":   div(float64(dc.clockTicks), float64(dc.clockCycles)),
		"lib.queue_drops":       float64(dc.queueDrops),
		"serial.frames_tx":      float64(dc.macTxFrames),
		"pcie.dma_frames":       float64(dc.dmaFrames),
		// Per job, what the executor spends outside Measure: device
		// instantiation and build, snapshot, seal, hand-off.
		"fleet.dispatch_us_per_job": (wallS*1e9*float64(in.workers) - float64(dc.measureNS)) / w.cells / 1e3,
		"go.alloc_kb_per_cell":      float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / w.cells,
		"go.gc_cycles":              float64(m1.NumGC - m0.NumGC),
		"go.gc_pause_ms":            float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
	if w.frames > 0 {
		v["sim.events_per_frame"] = w.events / w.frames
		v["hw.module_ticks_per_frame"] = float64(dc.moduleTicks) / w.frames
		v["hw.beats_per_frame"] = float64(dc.beats) / w.frames
		v["go.mallocs_per_frame"] = float64(m1.Mallocs-m0.Mallocs) / w.frames
	}
	if len(in.plan.Cells) == 1 {
		v["core.run_share"] = runNS / (wallS * 1e9)
	}
	if t, ok := tot["serial.tap_send"]; ok {
		v["serial.tap_send_ns"] = t.perCall()
	}
	if t, ok := tot["host.send"]; ok {
		v["host.send_ns"] = t.perCall()
		v["host.poll_ns_per_pkt"] = div(float64(tot["host.poll"].ns), w.hostFrames)
	}
	for spec, ns := range dc.bySpec {
		if id, ok := in.paperID[spec]; ok {
			v["projects.paper_ms."+id] += float64(ns) / 1e6
		}
	}
	for k, g := range gauges {
		v[k] = g
	}
	if in.session {
		v["resultstore.append_us_per_cell"] = float64(tot["resultstore.append"].ns) / w.cells / 1e3
		v["resultstore.merge_runs_ms"] = float64(tot["resultstore.merge_runs"].ns) / 1e6
	}
	return v
}

// localCellsMS is Σ Plan.RunCell over the plan's keys run locally,
// without the session protocol or the store, on as many goroutines as
// the fleet has workers so both sides pay the same contention. It runs
// between reps: what the wrapped measures record then is dropped.
func localCellsMS(in *instance) float64 {
	keys := in.plan.Keys()
	var wg sync.WaitGroup
	var ns atomic.Int64
	for g := 0; g < in.workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			for i := g; i < len(keys); i += in.workers {
				// A failed cell is reported by the checks on the fleet's own run.
				_, _ = in.plan.RunCell(context.Background(), keys[i], 0, 0, "", nil)
			}
			ns.Add(int64(time.Since(start)))
		}()
	}
	wg.Wait()
	return float64(ns.Load()) / 1e6
}

// runTraced repeats the workload with spans on, alternating with
// untraced reps of the same seed so the tracing overhead and the
// digests compare like with like, then runs the isolated probes.
func runTraced(wl workload, opt options) (*result, error) {
	tr := newTracer()
	plain, err := wl.build(opt, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	traced, err := wl.build(opt, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", wl.name, err)
	}
	ck := &checker{in: plain}
	warm, err := rep(plain, ck) // its digests are the reference
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up rep: %w", wl.name, err)
	}
	var plainWalls, tracedWalls []float64
	var reps []map[string]float64
	var w work
	for start := time.Now(); len(reps) < 2 || time.Since(start).Seconds() < opt.seconds; {
		_, wall, _, err := timedRep(plain, ck)
		if err != nil {
			return nil, fmt.Errorf("%s: untraced rep: %w", wl.name, err)
		}
		plainWalls = append(plainWalls, wall)

		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		tr.beginRep(len(reps), len(reps) == 0)
		repStart := time.Now()
		if w, err = rep(traced, ck); err != nil {
			return nil, fmt.Errorf("%s: traced rep: %w", wl.name, err)
		}
		wall = time.Since(repStart).Seconds()
		tot, dc := tr.endRep()
		runtime.ReadMemStats(&m1)
		tracedWalls = append(tracedWalls, wall)
		vals := layerValues(traced, w, wall, tot, dc, tr.gauges, &m0, &m1)
		if traced.session {
			// What the session protocol and the store add per cell: the
			// fleet's worker-time minus the same (equally wrapped) cells
			// run locally right after it.
			vals["shard.session_overhead_us_per_cell"] = (tr.gauges["shard.fleet_run_ms"]*float64(traced.workers) -
				localCellsMS(traced)) * 1e3 / w.cells
		}
		reps = append(reps, vals)
	}

	probed, err := probes(plain, warm.last, opt.sizes.probeIters, tr.timerNS)
	if err != nil {
		return nil, fmt.Errorf("%s: probes: %w", wl.name, err)
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeChrome(filepath.Join(opt.out, "trace-"+wl.name+".json")); err != nil {
		return nil, err
	}

	res := &result{Workload: wl.name, Seed: opt.seed, Traced: true, Reps: len(reps), Cells: int(w.cells),
		Ops: ck.ops, Failed: len(ck.fail), Failures: ck.fail, WallsS: plainWalls, Metrics: map[string]stat{}}
	for _, def := range perLayer {
		if p, ok := probed[def.Name]; ok {
			res.Metrics[def.Name] = exactStat(def.Unit, p, 1)
		} else if _, ok := reps[0][def.Name]; ok { // else undefined on this workload
			vals := make([]float64, len(reps))
			for i, r := range reps {
				vals[i] = r[def.Name]
			}
			res.Metrics[def.Name] = statOf(def.Unit, vals)
		}
	}
	// Each traced rep against the untraced rep run just before it, so a
	// slow phase of the machine weighs on both sides of a pair.
	overhead := make([]float64, len(reps))
	for i := range overhead {
		overhead[i] = (tracedWalls[i] - plainWalls[i]) / plainWalls[i] * 100
	}
	res.Metrics["trace.overhead_pct"] = statOf("%", overhead)
	return res, nil
}
