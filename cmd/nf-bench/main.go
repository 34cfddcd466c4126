// nf-bench regenerates the reproduction's experiment tables (the index
// `-list` prints; README.md walks through them). It has one run path,
// the sweep: `nf-bench sweep` runs a config file, and the bare command
// is an alias for a sweep over an in-memory config naming every
// experiment (or the one -exp selects), with no results store. Either
// way the cells execute on a shard fleet — one in-process worker unless
// -shards or -connect name others — then every experiment that ran in
// full renders its tables, followed by the claims scorecard.
//
//	nf-bench                 # every experiment's tables
//	nf-bench -exp T4         # just the switch line-rate table
//	nf-bench -workers 4 -seed 7
//	nf-bench -list           # list experiment IDs
//	nf-bench sweep -config examples/paper.sweep   # the same, stored and digested
//	nf-bench shard-worker -listen :9090           # remote sweep worker
//
// The sweep subcommand (see sweep.go) also shards across worker
// processes, persists results into the results store, resumes, and
// diffs digests against goldens or previous runs. The shard-worker
// subcommand (see worker.go) serves sweep cells to a remote coordinator
// over TCP or stdio.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
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
	c, cfg, err := parseMainFlags(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "nf-bench: %v\n", err)
		}
		os.Exit(2)
	}
	if cfg == nil {
		for _, d := range experiments.Defs() {
			fmt.Printf("%-4s %s\n", d.ID, d.Title)
		}
		return
	}
	runSweep(c, cfg, nil)
}

// parseMainFlags turns the bare command's arguments into the sweep it
// is an alias for: a storeless run, on one in-process worker, of an
// in-memory config naming the selected experiments. A nil config means
// -list.
func parseMainFlags(args []string) (*sweepConfig, *sweep.Config, error) {
	c := &sweepConfig{noStore: true}
	fs := flag.NewFlagSet("nf-bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // errors are returned, not printed
	exp := fs.String("exp", "", "run a single experiment by ID (e.g. T4)")
	list := fs.Bool("list", false, "list experiments and exit")
	resolve := runFlags(fs, &c.fleet.Req)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stderr)
			fs.Usage()
		}
		return nil, nil, err
	}
	resolve()
	if *list {
		return c, nil, nil
	}
	cfg := &sweep.Config{Name: "experiments"}
	for _, d := range experiments.Defs() {
		if *exp == "" || d.ID == *exp {
			cfg.Experiments = append(cfg.Experiments, d.ID)
		}
	}
	if len(cfg.Experiments) == 0 {
		return nil, nil, fmt.Errorf("unknown experiment %q (use -list)", *exp)
	}
	return c, cfg, nil
}

// runFlags registers the run-config flags the main and sweep modes share
// on fs, bound to req, and returns the function that — after fs.Parse —
// resolves a zero -workers to GOMAXPROCS. It is the only place flags
// become a shard.Request.
func runFlags(fs *flag.FlagSet, req *shard.Request) (resolve func()) {
	fs.IntVar(&req.Workers, "workers", 0, "pool width of each fleet worker, the in-process one included (0 = GOMAXPROCS)")
	fs.Uint64Var(&req.Seed, "seed", 0, "base seed per-device and per-cell seeds derive from")
	return func() {
		if req.Workers <= 0 {
			req.Workers = runtime.GOMAXPROCS(0)
		}
	}
}

// startProfiles starts CPU profiling if asked and returns an idempotent
// stop function that finishes the CPU profile and writes the heap
// profile — the sweep's -cpuprofile/-memprofile hook.
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
