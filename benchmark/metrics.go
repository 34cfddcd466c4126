package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricDef fixes one metric's name, unit and direction. Every later
// perf or simplicity change is judged with these names.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression. Per-layer
	// metrics have none.
	Bound float64 `json:"bound"`
	// exact marks a simulated statistic: it repeats bit-identically for
	// a seed, so two runs of the same code must agree on it exactly
	// whatever its bound says about two commits.
	exact bool
	// all marks an end-to-end metric that is defined on every workload
	// and is never 0; only those are declared in BENCHMARK.json, whose
	// contract wants every declared metric from every run.
	all bool
}

// endToEnd are the metrics a user of the simulator sees. A metric
// undefined on a workload is left out of that workload's rows.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, all: true},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, all: true},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25, all: true},
	{Name: "sim_frames_per_s", Unit: "frames/s", Better: "higher", Bound: 0.25},
	{Name: "sim_ms_per_s", Unit: "ms/s", Better: "higher", Bound: 0.25, all: true},
	{Name: "cells_per_s", Unit: "cells/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, all: true},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", exact: true},
	{Name: "sim_goodput_gbps", Unit: "Gb/s", Better: "higher", exact: true},
	{Name: "sim_loss_ratio", Unit: "ratio", Better: "lower", exact: true},
	{Name: "hybrid_p99_err_pct", Unit: "%", Better: "lower", exact: true},
}

// paperIDs are the key prefixes of examples/paper.sweep: the eleven
// experiments and the custom scenario matrix.
var paperIDs = []string{"F1", "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "F2", "T9", "matrix"}

// perLayer are the metrics of single layers, named layer.metric after
// this repo's packages and measured from outside: spans around the
// benchmark's own calls, public counters, and isolated probes. A layer a
// workload does not exercise reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.events_per_frame", Unit: "count", Better: "lower"},
		{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "sim.edge_exec_ratio", Unit: "ratio", Better: "lower"},
		{Name: "sim.timer_rearm_ns", Unit: "ns", Better: "lower"},
		{Name: "hw.module_ticks_per_frame", Unit: "count", Better: "lower"},
		{Name: "hw.beats_per_frame", Unit: "count", Better: "lower"},
		{Name: "hw.stream_beat_ns", Unit: "ns", Better: "lower"},
		{Name: "hw.pool_getput_ns", Unit: "ns", Better: "lower"},
		{Name: "lib.flowtable_lookup_ns", Unit: "ns", Better: "lower"},
		{Name: "lib.queue_drops", Unit: "count", Better: "lower"},
		{Name: "serial.tap_send_ns", Unit: "ns", Better: "lower"},
		{Name: "serial.frames_tx", Unit: "count", Better: "higher"},
		{Name: "host.send_ns", Unit: "ns", Better: "lower"},
		{Name: "host.send_mallocs", Unit: "count", Better: "lower"},
		{Name: "host.poll_ns_per_pkt", Unit: "ns", Better: "lower"},
		{Name: "pcie.dma_frames", Unit: "count", Better: "higher"},
		{Name: "pkt.parse_ns", Unit: "ns", Better: "lower"},
		{Name: "pkt.serialize_ns", Unit: "ns", Better: "lower"},
		{Name: "workload.next_ns", Unit: "ns", Better: "lower"},
		{Name: "core.run_share", Unit: "ratio", Better: "higher"},
		{Name: "core.bg_offer_ns", Unit: "ns", Better: "lower"},
		{Name: "core.device_build_us", Unit: "us", Better: "lower"},
		{Name: "core.snapshot_us", Unit: "us", Better: "lower"},
	}
	for _, id := range paperIDs {
		defs = append(defs, metricDef{Name: "projects.paper_ms." + id, Unit: "ms", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "fleet.efficiency", Unit: "ratio", Better: "higher"},
		metricDef{Name: "fleet.dispatch_us_per_job", Unit: "us", Better: "lower"},
		metricDef{Name: "fleet.first_result_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "sweep.plan_us", Unit: "us", Better: "lower"},
		metricDef{Name: "sweep.digest_merge_us_per_cell", Unit: "us", Better: "lower"},
		metricDef{Name: "shard.encode_us_per_cell", Unit: "us", Better: "lower"},
		metricDef{Name: "shard.decode_us_per_cell", Unit: "us", Better: "lower"},
		metricDef{Name: "shard.bytes_per_cell", Unit: "bytes", Better: "lower"},
		metricDef{Name: "shard.session_overhead_us_per_cell", Unit: "us", Better: "lower"},
		metricDef{Name: "shard.requeues", Unit: "count", Better: "lower"},
		metricDef{Name: "shard.worker_balance", Unit: "ratio", Better: "higher"},
		metricDef{Name: "resultstore.append_us_per_cell", Unit: "us", Better: "lower"},
		metricDef{Name: "resultstore.merge_runs_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "resultstore.bytes_per_cell", Unit: "bytes", Better: "lower"},
		metricDef{Name: "go.mallocs_per_frame", Unit: "count", Better: "lower"},
		metricDef{Name: "go.alloc_kb_per_cell", Unit: "KB", Better: "lower"},
		metricDef{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	)
}()

// stat is a metric as measured: the median of its samples, with their
// count and range beside it.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func statOf(unit string, v []float64) stat {
	st := stat{Unit: unit, Median: median(v), N: len(v), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range v {
		st.Min, st.Max = math.Min(st.Min, x), math.Max(st.Max, x)
	}
	return st
}

// rate is work done per wall second, taken from the wall samples: the
// median is work over the median wall, so a throughput metric can never
// disagree with wall_s.
func rate(unit string, work float64, walls []float64) stat {
	w := statOf("", walls)
	return stat{Unit: unit, Median: work / w.Median, N: w.N, Min: work / w.Max, Max: work / w.Min}
}

// exactStat is a simulated statistic: every one of the n reps gave this
// value (the digest check failed otherwise).
func exactStat(unit string, v float64, n int) stat {
	return stat{Unit: unit, Median: v, N: n, Min: v, Max: v}
}

// repoRoot is the nearest directory at or above the working directory
// that holds go.mod: the benchmark reads the paper sweep and its golden
// table from the tree it was built from.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod at or above the working directory")
		}
		dir = parent
	}
}
