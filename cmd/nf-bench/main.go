// nf-bench regenerates the reproduction's experiment tables (the index
// `-list` prints; README.md walks through them). With no arguments it
// runs everything sequentially; -exp selects one experiment by ID;
// -parallel executes the same device batches through the fleet worker
// pool and reports the wall-clock speedup over sequential execution,
// then runs the 8-device fleet suite both ways as a direct scaling
// demonstration.
//
//	nf-bench                 # all experiments, one device at a time
//	nf-bench -exp T4         # just the switch line-rate table
//	nf-bench -parallel       # fleet execution + speedup report
//	nf-bench -parallel -workers 4
//	nf-bench -json           # also write BENCH_<stamp>.json
//	nf-bench -list           # list experiment IDs
//	nf-bench sweep -config examples/paper.sweep   # scenario-matrix mode
//	nf-bench shard-worker -listen :9090           # remote sweep worker
//
// The sweep subcommand (see sweep.go) runs declarative scenario
// matrices from a config file, streams per-cell progress, persists
// results into the results store, and diffs digests against goldens or
// previous runs. The shard-worker subcommand (see worker.go) serves
// sweep cells to a remote coordinator over TCP or stdio.
//
// Determinism contract: -parallel produces byte-identical tables to the
// sequential run — devices are independent and per-device seeds are
// derived from (-seed, job index), never from scheduling — which the
// fleet demo verifies on every -parallel run.
//
// -json records every experiment's metrics and wall-clock timings as
// machine-readable JSON (default file BENCH_<stamp>.json, override with
// -json-out), giving the repo a perf trajectory across commits; CI
// uploads it as an artifact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/storage/resultstore"
	"repro/netfpga"
	"repro/netfpga/fleet"
	"repro/netfpga/sweep"
	"repro/netfpga/sweep/shard"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		runSweepCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "shard-worker" {
		runShardWorkerCmd(os.Args[2:])
		return
	}
	exp := flag.String("exp", "", "run a single experiment by ID (e.g. T4)")
	list := flag.Bool("list", false, "list experiments and exit")
	parallel := flag.Bool("parallel", false, "run device batches through the fleet worker pool and report speedup vs sequential")
	var req shard.Request
	resolve := runFlags(flag.CommandLine, &req)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	jsonOut := flag.Bool("json", false, "write per-experiment metrics and wall-clock to BENCH_<stamp>.json")
	jsonPath := flag.String("json-out", "", "override the -json output path")
	storeDir := flag.String("store", "nf-results", "results store directory -json runs are also indexed into (sweep -history then covers perf trajectories)")
	noStore := flag.Bool("no-store", false, "skip persisting -json runs into the results store")
	flag.Parse()
	if err := resolve(); err != nil {
		fmt.Fprintf(os.Stderr, "nf-bench: %v\n", err)
		os.Exit(2)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	todo := experiments.Defs()
	if *exp != "" {
		d, ok := experiments.DefByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "nf-bench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(1)
		}
		todo = []experiments.Def{d}
	}

	stopProf := startProfiles(*cpuprofile, *memprofile)
	defer stopProf()
	store := ""
	if !*noStore {
		store = *storeDir
	}
	seq := req.Runner()
	seq.Workers = 1

	if !*parallel {
		walls, tables, frames := runSuite(todo, seq, os.Stdout)
		if *jsonOut || *jsonPath != "" {
			writeJSON(*jsonPath, todo, walls, tables, frames, 1, req.Seed, store)
		}
		return
	}

	w := req.Workers
	// Sequential reference pass first (tables discarded — they are
	// byte-identical to the parallel pass by the fleet's determinism
	// contract), then the parallel pass that prints.
	seqWalls, _, _ := runSuite(todo, seq, io.Discard)
	parWalls, parTables, parFrames := runSuite(todo, req.Runner(), os.Stdout)

	fmt.Printf("==== fleet speedup (%d workers, GOMAXPROCS=%d) ====\n\n", w, runtime.GOMAXPROCS(0))
	fmt.Printf("%-4s %12s %12s %8s\n", "exp", "sequential", "parallel", "speedup")
	var seqTotal, parTotal time.Duration
	for i, e := range todo {
		seqTotal += seqWalls[i]
		parTotal += parWalls[i]
		fmt.Printf("%-4s %12v %12v %7.2fx\n", e.ID,
			seqWalls[i].Round(time.Millisecond), parWalls[i].Round(time.Millisecond),
			speedup(seqWalls[i], parWalls[i]))
	}
	fmt.Printf("%-4s %12v %12v %7.2fx\n\n", "all",
		seqTotal.Round(time.Millisecond), parTotal.Round(time.Millisecond),
		speedup(seqTotal, parTotal))

	if *jsonOut || *jsonPath != "" {
		writeJSON(*jsonPath, todo, parWalls, parTables, parFrames, w, req.Seed, store)
	}

	fleetDemo(req)
}

// runFlags registers the run-config flags the main and sweep modes share
// on fs, bound to req, and returns the function that — after fs.Parse —
// resolves the string-valued ones into req. It is the only place flags
// become a shard.Request; Request.Runner is the only place a Request
// becomes a pool.
func runFlags(fs *flag.FlagSet, req *shard.Request) (resolve func() error) {
	fs.IntVar(&req.Workers, "workers", 0, "worker count of the in-process pool, or of each fleet worker's pool (0 = GOMAXPROCS)")
	fs.Uint64Var(&req.Seed, "seed", 0, "base seed per-device and per-cell seeds derive from")
	fidelity := fs.String("fidelity", "full", "execution fidelity for devices without their own fidelity axis: full (cycle-accurate) or hybrid (background-tagged flows run the analytic model; results differ from full by design)")
	return func() (err error) {
		if req.Workers <= 0 {
			req.Workers = runtime.GOMAXPROCS(0)
		}
		req.Fidelity, err = parseFidelity(*fidelity)
		return err
	}
}

// parseFidelity maps the -fidelity flag: "full" is the cycle-accurate
// default and maps to the empty override so cell-level fidelity axes
// keep deciding for themselves; "hybrid" runs background-tagged flows
// through the analytic aggregate model (results differ from full by
// design — hybrid runs are golden-digested separately).
func parseFidelity(v string) (string, error) {
	switch v {
	case "full", "":
		return "", nil
	case "hybrid":
		return netfpga.FidelityHybrid, nil
	}
	return "", fmt.Errorf("-fidelity must be full or hybrid (got %q)", v)
}

// startProfiles starts CPU profiling if asked and returns an idempotent
// stop function that finishes the CPU profile and writes the heap
// profile — the shared -cpuprofile/-memprofile hook for the main and
// sweep modes.
func startProfiles(cpu, mem string) func() {
	var f *os.File
	if cpu != "" {
		var err error
		f, err = os.Create(cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nf-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "nf-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if f != nil {
			pprof.StopCPUProfile()
			f.Close()
		}
		if mem != "" {
			g, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nf-bench: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle the live set before snapshotting it
			if err := pprof.WriteHeapProfile(g); err != nil {
				fmt.Fprintf(os.Stderr, "nf-bench: -memprofile: %v\n", err)
			}
			g.Close()
		}
	}
}

// runSuite executes the experiments on the given runner, rendering
// tables to out, and returns each experiment's wall-clock time, tables,
// and total received frames (summed over cells — the numerator of the
// frames/sec perf headline). Cells stream as they finish — a long
// experiment shows its devices completing instead of a silent pause
// before the table.
func runSuite(todo []experiments.Def, r *fleet.Runner, out io.Writer) ([]time.Duration, [][]*experiments.Table, []float64) {
	walls := make([]time.Duration, len(todo))
	all := make([][]*experiments.Table, len(todo))
	frames := make([]float64, len(todo))
	for i, d := range todo {
		var print func(cr sweep.CellResult)
		if out != io.Discard {
			fmt.Fprintf(out, "==== %s: %s ====\n", d.ID, d.Title)
			// Expansion is cheap and pure; counting cells up front
			// lets the stream show [done/total].
			total := 0
			if cells, _, err := sweep.ExpandGroups(d.Groups, ""); err == nil {
				total = len(cells)
			}
			done := 0
			print = func(cr sweep.CellResult) {
				done++
				fmt.Fprintf(out, "[%*d/%d] %-52s %s\n", digits(total), done, total,
					cr.Cell.Key, summarizeCell(cr))
			}
		}
		idx := i
		progress := func(cr sweep.CellResult) {
			// Generic cells report rx_frames; latency cells report the
			// probe count instead (each probe is one measured frame).
			// Either way the sum is the frames/sec numerator.
			frames[idx] += cr.Values["rx_frames"] + cr.Values["probes"]
			if print != nil {
				print(cr)
			}
		}
		start := time.Now()
		tables := d.RunStreamed(r, progress)
		walls[i] = time.Since(start)
		all[i] = tables
		fmt.Fprintf(out, "(wall %v)\n\n", walls[i].Round(time.Millisecond))
		for _, t := range tables {
			fmt.Fprintln(out, t)
		}
	}
	return walls, all, frames
}

// benchJSON is the BENCH_<stamp>.json schema: one record per run, with
// per-experiment wall-clock and headline metrics.
type benchJSON struct {
	Stamp       string         `json:"stamp"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Workers     int            `json:"workers"`
	BaseSeed    uint64         `json:"base_seed"`
	TotalWallNs int64          `json:"total_wall_ns"`
	Experiments []benchExpJSON `json:"experiments"`
}

type benchExpJSON struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	WallNs  int64              `json:"wall_ns"`
	Frames  float64            `json:"frames"`
	Metrics map[string]float64 `json:"metrics"`
}

// writeJSON records the run's metrics and timings. An empty path means
// BENCH_<stamp>.json in the working directory. A non-empty storeDir
// additionally indexes the run into the results store, one record per
// experiment, so `nf-bench sweep -history bench/<ID>` charts the perf
// trajectory across commits.
func writeJSON(path string, todo []experiments.Def, walls []time.Duration, tables [][]*experiments.Table, frames []float64, workers int, seed uint64, storeDir string) {
	stamp := time.Now().UTC().Format("20060102-150405")
	if path == "" {
		path = "BENCH_" + stamp + ".json"
	}
	doc := benchJSON{
		Stamp:      stamp,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		BaseSeed:   seed,
	}
	for i, e := range todo {
		rec := benchExpJSON{ID: e.ID, Title: e.Title, WallNs: walls[i].Nanoseconds(),
			Frames: frames[i], Metrics: make(map[string]float64)}
		for _, t := range tables[i] {
			for k, v := range t.Metrics {
				rec.Metrics[t.ID+"/"+k] = v
			}
		}
		doc.TotalWallNs += rec.WallNs
		doc.Experiments = append(doc.Experiments, rec)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "nf-bench: encoding JSON: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "nf-bench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d experiments, total wall %v)\n\n", path,
		len(doc.Experiments), time.Duration(doc.TotalWallNs).Round(time.Millisecond))
	if storeDir != "" {
		if err := persistBench(storeDir, doc, seed, workers); err != nil {
			fmt.Fprintf(os.Stderr, "nf-bench: results store: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("indexed run bench-%s into %s (%d experiments)\n\n", stamp, storeDir, len(doc.Experiments))
	}
}

// persistBench indexes a BENCH_*.json run into the results store: one
// record per experiment under key "bench/<ID>", values carrying the
// experiment's metrics plus its wall-clock. The record digest covers
// only the simulated metrics — never wall-clock or timestamps — so the
// history view's change markers track real result movement while the
// timing columns chart the perf trajectory.
func persistBench(dir string, doc benchJSON, seed uint64, workers int) error {
	st, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	rw, err := st.Begin(resultstore.Meta{
		Run: "bench-" + doc.Stamp, Name: "bench", Seed: seed,
		Workers: workers, Stamp: doc.Stamp,
	})
	if err != nil {
		return err
	}
	for _, e := range doc.Experiments {
		values := make(map[string]float64, len(e.Metrics)+1)
		keys := make([]string, 0, len(e.Metrics))
		for k, v := range e.Metrics {
			values[k] = v
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var canon strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&canon, "%s=%v;", k, e.Metrics[k])
		}
		// Like wall_ns, frames stays out of the digest canon: it is a
		// throughput bookkeeping value, and folding it in would mark
		// every pre-existing bench history as "changed" spuriously.
		values["wall_ns"] = float64(e.WallNs)
		values["frames"] = e.Frames
		if err := rw.Append(resultstore.Record{
			Key: "bench/" + e.ID, Seed: seed, Values: values,
			Labels: map[string]string{"title": e.Title},
			Digest: resultstore.Hash(canon.String()),
		}); err != nil {
			return err
		}
	}
	return rw.Close()
}

func speedup(seq, par time.Duration) float64 {
	if par <= 0 {
		return 0
	}
	return float64(seq) / float64(par)
}

// demoValue is a demo device's Value: what its Drive reported, and the
// device's full counter snapshot taken before Drive returned.
type demoValue struct {
	Summary any
	Stats   map[string]uint64
}

// withSnapshot makes every job return a demoValue.
func withSnapshot(jobs []fleet.Job) []fleet.Job {
	for i := range jobs {
		drive := jobs[i].Drive
		jobs[i].Drive = func(c *fleet.Ctx) (any, error) {
			v, err := drive(c)
			return demoValue{Summary: v, Stats: c.Dev.Snapshot()}, err
		}
	}
	return jobs
}

// sameResult compares two fleet results on everything the device
// exposes: the demoValue — Drive's summary and the full counter snapshot
// (fmt prints maps in sorted key order, so the comparison is canonical)
// — event count and final simulated time. The demos gate on this so a
// divergence visible only in counters still fails CI.
func sameResult(a, b fleet.Result) bool {
	return fmt.Sprint(a.Value) == fmt.Sprint(b.Value) &&
		a.Events == b.Events && a.SimTime == b.SimTime
}

// fleetDemo runs the canonical 8-device suite — eight independent
// reference-switch devices under seeded IMIX load for a fixed simulated
// window — once on one worker and once on the pool, verifying both
// produce byte-identical per-device results: the end-to-end gate for the
// fleet's scheduling determinism.
func fleetDemo(req shard.Request) {
	const devices = 8
	workers := req.Workers
	run := func(w int) ([]fleet.Result, time.Duration) {
		q := req
		q.Workers = w
		start := time.Now()
		res := q.Runner().RunAll(context.Background(),
			withSnapshot(experiments.SwitchFleetJobs(devices, 200*netfpga.Microsecond)))
		return res, time.Since(start)
	}
	seqRes, seqWall := run(1)
	parRes, parWall := run(workers)

	fmt.Printf("==== fleet demo: %d reference-switch devices, IMIX at line rate ====\n\n", devices)
	fmt.Printf("%-9s %-18s %12s %10s\n", "device", "result", "sim events", "status")
	identical, failed := true, false
	for i := range seqRes {
		status := "ok"
		for _, r := range []fleet.Result{seqRes[i], parRes[i]} {
			if r.Err != nil {
				failed = true
				status = "ERR " + r.Err.Error()
			}
		}
		if !sameResult(seqRes[i], parRes[i]) {
			identical = false
			status = "DIVERGED(par)"
		}
		summary, _ := parRes[i].Value.(demoValue)
		fmt.Printf("%-9s %-18v %12d %10s\n", seqRes[i].Name, summary.Summary, parRes[i].Events, status)
	}
	match := "byte-identical (sequential vs pool)"
	if !identical {
		match = "MISMATCH (determinism bug)"
	}
	if failed {
		match += "; DEVICE ERRORS"
	}
	fmt.Printf("\nsequential %v, parallel (%d workers) %v, speedup %.2fx; results %s\n",
		seqWall.Round(time.Millisecond), workers, parWall.Round(time.Millisecond),
		speedup(seqWall, parWall), match)
	if !identical || failed {
		os.Exit(1)
	}
}
