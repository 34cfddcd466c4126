package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/netfpga/sweep"
)

// procStart stands for process start: the first set-up is timed from it,
// so flag parsing and package initialisation count as set-up.
var procStart = time.Now()

const (
	// setups is how many times an untraced run sets the workload up from
	// scratch; setup_s is their median.
	setups = 3
	// minReps is the fewest timed reps a run measures however short
	// -seconds is.
	minReps = 3
)

// options are one run's inputs.
type options struct {
	seed    uint64
	seconds float64 // keep measuring timed reps for this long
	trace   bool
	sizes   sizes
	out     string // directory for trace files, result files and scratch stores
}

// failure is one failed output check, with the offending cell.
type failure struct {
	Key string `json:"key"`
	Why string `json:"why"`
}

// result is everything one run of one workload measured.
type result struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Traced   bool      `json:"traced"`
	Reps     int       `json:"reps"`
	Cells    int       `json:"cells_per_rep"`
	Ops      int       `json:"ops"`     // cells checked, warm-up reps included
	Failed   int       `json:"failed"`  // cells that failed a check
	WallsS   []float64 `json:"walls_s"` // per-rep raw walls (untraced reps)
	// Metrics holds the end-to-end metrics of an untraced run, or the
	// per-layer metrics of a traced one, by name.
	Metrics  map[string]stat `json:"metrics"`
	Failures []failure       `json:"failures,omitempty"`
}

// work is what one rep of the workload simulates; it is identical for
// every rep of a seed.
type work struct {
	cells, frames, hostFrames float64
	simMS, events             float64
	rxBytes, drops, windowS   float64
	last                      *sweep.Results // the rep's cells, for the probes
}

// checker applies the output checks to every rep, warm-ups included.
type checker struct {
	in   *instance
	ref  map[string]string // first rep's digest per cell key
	ops  int
	fail []failure
}

// check checks one rep's cells: no error, the same digest as the first
// rep gave the cell, the workload's own rule, and the golden table.
func (ck *checker) check(rs *sweep.Results) {
	if ck.ref == nil {
		ck.ref = rs.Digests()
	}
	bad := map[string]bool{}
	for _, cr := range rs.Cells {
		ck.ops++
		key := cr.Cell.Key
		why := ""
		switch {
		case cr.Err != "":
			why = "cell error: " + cr.Err
		case cr.Digest != ck.ref[key]:
			why = fmt.Sprintf("digest %s differs from the first rep's %s", cr.Digest, ck.ref[key])
		case ck.in.check != nil:
			why = ck.in.check(cr)
		}
		if why != "" {
			ck.fail = append(ck.fail, failure{key, why})
			bad[key] = true
		}
	}
	if ck.in.golden == nil {
		return
	}
	for _, d := range sweep.DiffGolden(ck.in.golden, rs, ck.in.filtered) {
		// "changed: <key> (...", "new cell: <key>", "missing cell: <key>"
		_, rest, _ := strings.Cut(d, ": ")
		key, _, _ := strings.Cut(rest, " ")
		if !bad[key] {
			bad[key] = true
			ck.fail = append(ck.fail, failure{key, "golden_sweep.json: " + d})
		}
	}
}

// rep runs the workload's body once, checks its outputs and returns
// what it simulated.
func rep(in *instance, ck *checker) (work, error) {
	rs, err := in.pass()
	if err != nil {
		return work{}, err
	}
	ck.check(rs)
	w := work{last: rs}
	for _, cr := range rs.Cells {
		w.cells++
		w.simMS += float64(cr.SimTime) / 1e9
		w.events += float64(cr.Events)
		if in.frames && cr.Err == "" {
			w.frames += cr.Values["rx_frames"]
			w.hostFrames += cr.Values["host_rx_frames"]
			w.rxBytes += cr.Values["rx_bytes"]
			w.drops += cr.Values["drops"]
			w.windowS += cr.Cell.Spec.Window().Seconds()
		}
	}
	return w, nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF into a valid struct cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's VmHWM.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// timedRep runs one rep from a collected heap and returns its wall and
// CPU seconds.
func timedRep(in *instance, ck *checker) (w work, wall, cpu float64, err error) {
	runtime.GC()
	cpu0, start := cpuSeconds(), time.Now()
	w, err = rep(in, ck)
	return w, time.Since(start).Seconds(), cpuSeconds() - cpu0, err
}

// runWorkload measures one workload in this process: set-up (with an
// untimed warm-up rep) repeated, then timed reps of the identical body
// for opt.seconds. Untraced, it returns the end-to-end metrics; traced,
// the per-layer metrics.
func runWorkload(wl workload, opt options) (*result, error) {
	if opt.trace {
		return runTraced(wl, opt)
	}
	res := &result{Workload: wl.name, Seed: opt.seed, Metrics: map[string]stat{}}
	ck := &checker{}
	var in *instance
	var setupS []float64
	start := procStart
	for i := 0; i < setups; i++ {
		var err error
		if in, err = wl.build(opt, nil); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		ck.in = in
		if _, err := rep(in, ck); err != nil {
			return nil, fmt.Errorf("%s: warm-up rep: %w", wl.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		start = time.Now()
	}

	var w work
	var walls, cpus []float64
	for start := time.Now(); len(walls) < minReps || time.Since(start).Seconds() < opt.seconds; {
		var wall, cpu float64
		var err error
		if w, wall, cpu, err = timedRep(in, ck); err != nil {
			return nil, fmt.Errorf("%s: rep %d: %w", wl.name, len(walls), err)
		}
		walls, cpus = append(walls, wall), append(cpus, cpu)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	n := len(walls)
	res.Reps, res.Cells, res.WallsS = n, int(w.cells), walls
	res.Ops, res.Failed, res.Failures = ck.ops, len(ck.fail), ck.fail
	m := res.Metrics
	m["setup_s"] = statOf("s", setupS)
	m["wall_s"] = statOf("s", walls)
	m["cpu_s"] = statOf("s", cpus)
	m["sim_ms_per_s"] = rate("ms/s", w.simMS, walls)
	m["peak_rss_mb"] = exactStat("MB", rss, 1)
	m["fail_ratio"] = exactStat("ratio", float64(res.Failed)/float64(res.Ops), 1)
	if in.frames {
		m["sim_frames_per_s"] = rate("frames/s", w.frames, walls)
		m["sim_goodput_gbps"] = exactStat("Gb/s", w.rxBytes*8/w.windowS/1e9, n)
		m["sim_loss_ratio"] = exactStat("ratio", w.drops/(w.frames+w.drops), n)
	}
	if len(in.plan.Cells) > 1 {
		m["cells_per_s"] = rate("cells/s", w.cells, walls)
	}
	if in.p99ErrPct != nil {
		m["hybrid_p99_err_pct"] = exactStat("%", *in.p99ErrPct, 1)
	}
	// sim.events is a per-layer count, but it comes free with the cells
	// and -aa compares it exactly, so the untraced result carries it too.
	m["sim.events"] = exactStat("count", w.events, n)
	return res, nil
}
