// Command benchmark is the repo's perf observatory: six named workloads,
// end-to-end metrics with fixed bounds, and per-layer metrics from a
// traced run. It measures every layer from outside — timing calls into
// public functions and reading public counters — and checks the
// simulated outputs of every rep.
//
//	go run ./benchmark            the six workloads untraced: end-to-end metrics
//	go run ./benchmark -trace 1   traced reps plus layer probes: per-layer metrics
//	go run ./benchmark -aa        the untraced set twice: the A/A noise floor
//	go run ./benchmark -workload mesh_min64 -seed 7 -seconds 10 -trace 0
//
// Without -workload the parent runs each workload in a re-exec'd child,
// so peak RSS and GC state belong to that workload alone. A child ends
// its standard output with one JSON line: correct, attempted, failed and
// the metrics declared in BENCHMARK.json. It exits non-zero when an
// output check failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
)

func main() {
	err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	switch {
	case errors.Is(err, errFailed):
		os.Exit(exitFailed)
	case err != nil:
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "run this one workload in this process (default: all, each in a child)")
	seed := flag.Uint64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 12, "how long one run keeps measuring timed reps")
	trace := flag.Int("trace", 0, "1 = traced reps and layer probes, printing the per-layer metrics")
	aa := flag.Bool("aa", false, "run the untraced set twice and compare the two against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 {
		return errors.New("usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-aa]")
	}
	runtime.GOMAXPROCS(workers)
	root, err := repoRoot()
	if err != nil {
		return err
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, sizes: fullSizes,
		out: filepath.Join(root, "benchmark", "out")} // git-ignored
	switch {
	case *name != "":
		return child(*name, opt)
	case *aa:
		return selfCheck(opt)
	}
	_, err = runSet(opt)
	return err
}

// errFailed says a run's output checks failed; such a run has printed
// its result and exits with exitFailed, which is how the parent tells it
// from a child that could not run.
var errFailed = errors.New("output checks failed")

const exitFailed = 2

// child measures one workload in this process, prints it, leaves the
// full result in opt.out for the parent, and ends standard output with
// the contract's JSON line.
func child(name string, opt options) error {
	wl, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runWorkload(wl, opt)
	if err != nil {
		return err
	}
	printResult(wl, res)
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(resultPath(opt, name), append(data, '\n'), 0o644); err != nil {
		return err
	}
	line, err := contractLine(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return errFailed
	}
	return nil
}

// contractLine is the JSON object a run ends its standard output with:
// correct, attempted, failed and every metric BENCHMARK.json declares
// for this kind of run. A layer the workload does not exercise reads 0.
func contractLine(res *result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Ops, res.Failed, map[string]value{}}
	for _, def := range declared(res.Traced) {
		line.Metrics[def.Name] = value{res.Metrics[def.Name].Median, def.Unit}
	}
	return json.Marshal(line)
}

// declared lists the metrics BENCHMARK.json declares for a traced or an
// untraced run: every one of them is in every run's JSON line.
func declared(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	var defs []metricDef
	for _, def := range endToEnd {
		if def.all {
			defs = append(defs, def)
		}
	}
	return defs
}

// resultPath is where a child leaves its full result for the parent.
func resultPath(opt options, workload string) string {
	kind := "result"
	if opt.trace {
		kind = "layers"
	}
	return filepath.Join(opt.out, kind+"-"+workload+".json")
}

func printResult(wl workload, res *result) {
	fmt.Printf("== %s  seed %d  reps %d  cells/rep %d  ops %d  failed %d\n   %s\n",
		wl.name, res.Seed, res.Reps, res.Cells, res.Ops, res.Failed, wl.why)
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, def := range defs {
		st, ok := res.Metrics[def.Name]
		if !ok {
			continue // undefined on this workload
		}
		bound := ""
		switch {
		case def.exact:
			bound = "  exact"
		case !res.Traced:
			bound = fmt.Sprintf("  bound %.0f%%", def.Bound*100)
		}
		fmt.Printf("  %-36s %14s %-8s n=%-3d min %-12s max %-12s%s\n", def.Name,
			num(st.Median), st.Unit, st.N, num(st.Min), num(st.Max), bound)
	}
	for _, f := range res.Failures {
		fmt.Printf("  FAIL %s: %s\n", f.Key, f.Why)
	}
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// runSet runs every workload in a child process, one after another, and
// returns their results.
func runSet(opt options) (map[string]*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	results := map[string]*result{}
	failed := false
	for _, wl := range workloads {
		trace := "0"
		if opt.trace {
			trace = "1"
		}
		cmd := exec.Command(exe, "-workload", wl.name, "-seed", strconv.FormatUint(opt.seed, 10),
			"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", trace)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != exitFailed {
				return nil, fmt.Errorf("%s: %w", wl.name, err)
			}
			failed = true // reported; the other workloads still run
		}
		data, err := os.ReadFile(resultPath(opt, wl.name))
		if err != nil {
			return nil, err
		}
		var res result
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		results[wl.name] = &res
	}
	if err := writeResults(opt); err != nil {
		return nil, err
	}
	if failed {
		return results, errFailed
	}
	return results, nil
}

// writeResults gathers every result the children have left in opt.out,
// untraced and traced, into results.json beside what identifies the run.
func writeResults(opt options) error {
	doc := struct {
		Go        string                        `json:"go"`
		NProc     int                           `json:"nproc"`
		Commit    string                        `json:"commit"` // stamped by go build, empty under go run
		Seed      uint64                        `json:"seed"`
		Seconds   float64                       `json:"seconds"`
		Workloads map[string]map[string]*result `json:"workloads"`
	}{Go: runtime.Version(), NProc: runtime.NumCPU(), Seed: opt.seed, Seconds: opt.seconds,
		Workloads: map[string]map[string]*result{}}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				doc.Commit = kv.Value
			}
		}
	}
	for _, wl := range workloads {
		doc.Workloads[wl.name] = map[string]*result{}
		for kind, traced := range map[string]bool{"end_to_end": false, "per_layer": true} {
			opt.trace = traced
			data, err := os.ReadFile(resultPath(opt, wl.name))
			if err != nil {
				continue // that set has not been run
			}
			var res result
			if err := json.Unmarshal(data, &res); err != nil {
				return fmt.Errorf("%s: %w", resultPath(opt, wl.name), err)
			}
			doc.Workloads[wl.name][kind] = &res
		}
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opt.out, "results.json"), append(data, '\n'), 0o644)
}

// selfCheck is the A/A mode: the untraced set twice, back to back. Two
// runs of the same code must agree within every timed metric's bound
// and exactly on every simulated statistic; what it prints is the
// benchmark's noise floor.
func selfCheck(opt options) error {
	opt.trace = false
	a, err := runSet(opt)
	if err != nil {
		return err
	}
	b, err := runSet(opt)
	if err != nil {
		return err
	}
	defs := append(append([]metricDef(nil), endToEnd...), metricDef{Name: "sim.events", Unit: "count", exact: true})
	bad := 0
	fmt.Printf("\n== A/A: two runs of the same code, seed %d\n", opt.seed)
	fmt.Printf("  %-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, wl := range workloads {
		for _, def := range defs {
			x, ok := a[wl.name].Metrics[def.Name]
			if !ok {
				continue
			}
			y := b[wl.name].Metrics[def.Name]
			// worse is how much the second run reads worse than the first,
			// as a share of the first.
			worse := 0.0
			if x.Median != y.Median {
				worse = (y.Median - x.Median) / x.Median
				if def.Better == "higher" {
					worse = -worse
				}
			}
			verdict := ""
			switch {
			case def.exact && x.Median != y.Median:
				verdict = "  DIFFERS (exact metric)"
			case !def.exact && math.Abs(worse) > def.Bound:
				verdict = "  BEYOND BOUND"
			}
			if verdict != "" {
				bad++
			}
			bound := "exact"
			if !def.exact {
				bound = fmt.Sprintf("%.0f%%", def.Bound*100)
			}
			fmt.Printf("  %-14s %-20s %14s %14s %+8.2f%% %7s%s\n", wl.name, def.Name,
				num(x.Median), num(y.Median), worse*100, bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d metric(s) disagree between two runs of the same code", bad)
	}
	return nil
}
