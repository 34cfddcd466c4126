package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/storage/resultstore"
	"repro/netfpga/fleet"
	"repro/netfpga/sweep"
	"repro/netfpga/sweep/shard"
	traffic "repro/netfpga/workload"
)

// workers is the most goroutines a workload generates load with: this
// sandbox's nproc. A constant, not read at run time, so numbers from
// different hosts stay comparable.
const workers = 2

// defaultSeed is the -seed default. paper_local plans at the golden
// table's own base seed under it, so the default run is checked against
// golden_sweep.json.
const defaultSeed = 1

// sizes is how much simulated work one rep of each workload does. The
// full table gives about one second per rep on 2 vCPUs; the smoke test
// passes a table a hundredth the size.
type sizes struct {
	meshMin64US int    // simulated microseconds of 60-byte full mesh
	meshMTUUS   int    // simulated microseconds of 1514-byte full mesh
	nicUS       int    // simulated microseconds of two-way host DMA
	hybridUS    int    // simulated microseconds of the 255-of-256 hybrid cell
	paperFilter string // cell filter ("" = all 103 cells)
	tinySeeds   int    // seeds per tiny_fleet combination (48 cells each)
	probeIters  int    // calls per round of a nanosecond-scale layer probe
}

var fullSizes = sizes{
	meshMin64US: 30_000,
	meshMTUUS:   64_000,
	nicUS:       16_000,
	hybridUS:    9_000_000,
	tinySeeds:   64,
	probeIters:  400_000,
}

// workload is one named set of inputs. build sets it up from scratch
// for a seed; tr is nil on untraced runs.
type workload struct {
	name  string
	why   string
	build func(opt options, tr *tracer) (*instance, error)
}

// instance is a workload set up for one seed: a compiled plan and the
// way one pass over it executes.
type instance struct {
	plan    *sweep.Plan
	workers int // goroutines executing cells
	// pass executes every cell of the plan once: the body of a rep.
	pass func() (*sweep.Results, error)
	// check is the workload's own output rule for a cell that ran
	// without error; it returns what is wrong, or "".
	check func(cr sweep.CellResult) string
	// golden is the table every rep is compared with (paper_local at
	// the table's seed; nil otherwise).
	golden   *sweep.Golden
	filtered bool
	// frames says the cells report sent/rx_frames/rx_bytes/drops over
	// their spec's window, so the frame metrics are defined.
	frames bool
	// p99ErrPct is hybrid_p99_err_pct from the set-up's calibration
	// pair (nil where undefined).
	p99ErrPct *float64
	// gen is the traffic the workload's cells draw, for the generator
	// probe.
	gen traffic.Config
	// session says the passes go through the session-protocol fleet.
	session bool
	// paperID maps a spec name of the paper sweep to the experiment (or
	// custom scenario) its cells are accounted to.
	paperID map[string]string
}

var workloads = []workload{
	{"mesh_min64", "60-byte line-rate full mesh through the switch: per-frame cost dominates (event heap, MAC timers, frame pool)",
		func(opt options, tr *tracer) (*instance, error) {
			return buildMesh(opt.seed, 60, opt.sizes.meshMin64US, tr)
		}},
	{"mesh_mtu1514", "1514-byte line-rate full mesh, same engine: per-beat cost dominates (clock edges, module ticks, streams)",
		func(opt options, tr *tracer) (*instance, error) {
			return buildMesh(opt.seed, 1514, opt.sizes.meshMTUUS, tr)
		}},
	{"nic_hostdma", "two-way IMIX through the reference NIC: the host driver and PCIe DMA path, which allocates per frame", buildNIC},
	{"hybrid_bg255", "255 of 256 flows analytic: generator, background model and measure pacing run, the engine idles; carries hybrid accuracy", buildHybrid},
	{"paper_local", "the users' real 103-cell paper sweep on the local 2-worker runner, every subsystem, checked against the golden table", buildPaper},
	{"tiny_fleet", "thousands of 10-us cells through the session-protocol fleet and the result store: per-cell fixed cost dominates", buildTiny},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// compile plans the groups at the base seed (wrapped for tracing when tr
// is set) and checks that every cell compiles into a job.
func compile(groups []sweep.Group, filter string, base uint64, tr *tracer) (*sweep.Plan, error) {
	start := time.Now()
	plan, err := sweep.PlanGroups(tr.wrap(groups), filter, base)
	if err != nil {
		return nil, err
	}
	if _, err := plan.Jobs(); err != nil {
		return nil, err
	}
	tr.gauge("sweep.plan_us", float64(time.Since(start))/1e3)
	if len(plan.Cells) == 0 {
		return nil, fmt.Errorf("plan has no cells")
	}
	return plan, nil
}

// localPass executes the plan on the in-process runner.
func localPass(plan *sweep.Plan, nworkers int, tr *tracer) func() (*sweep.Results, error) {
	return func() (*sweep.Results, error) {
		r := &fleet.Runner{Workers: nworkers, BaseSeed: plan.BaseSeed}
		start := time.Now()
		ch, rs, err := plan.Execute(context.Background(), r)
		if err != nil {
			return nil, err
		}
		n := 0
		for range ch {
			if n++; n == 1 {
				tr.gauge("fleet.first_result_ms", float64(time.Since(start))/1e6)
			}
		}
		tr.gauge("fleet.efficiency", r.Utilization().Efficiency())
		return rs, nil
	}
}

// single builds a one-cell instance of a SUME project under measure m.
func single(name, project string, seed uint64, windowUS int, spec sweep.Spec, m sweep.Measure, tr *tracer) (*instance, error) {
	spec.Name = name
	spec.Boards = []string{"sume"}
	spec.Projects = []string{project}
	spec.WindowUS = windowUS
	plan, err := compile([]sweep.Group{{Spec: spec, Measure: m}}, "", seed, tr)
	if err != nil {
		return nil, err
	}
	return &instance{plan: plan, workers: 1, pass: localPass(plan, 1, tr), frames: true}, nil
}

func buildMesh(seed uint64, frame, windowUS int, tr *tracer) (*instance, error) {
	spec := sweep.Spec{Params: []sweep.Axis{{Name: "frame", Values: []string{strconv.Itoa(frame)}}}}
	in, err := single("mesh", "reference_switch", seed, windowUS, spec, meshMeasure(tr), tr)
	if err != nil {
		return nil, err
	}
	in.gen = traffic.Config{Sizes: traffic.FixedSize(frame)}
	in.check = func(cr sweep.CellResult) string {
		if cr.V("rx_frames") != cr.V("sent") || cr.V("drops") != 0 {
			return fmt.Sprintf("mesh lost frames: sent %.0f, delivered %.0f, drops %.0f",
				cr.V("sent"), cr.V("rx_frames"), cr.V("drops"))
		}
		return ""
	}
	return in, nil
}

func buildNIC(opt options, tr *tracer) (*instance, error) {
	return single("nic", "reference_nic", opt.seed, opt.sizes.nicUS, sweep.Spec{}, nicMeasure(tr), tr)
}

func buildHybrid(opt options, tr *tracer) (*instance, error) {
	seed := opt.seed
	wl := sweep.Workload{Name: "bg255of256", Flows: 256, Background: 255}
	spec := sweep.Spec{Workloads: []sweep.Workload{wl}, Fidelities: []string{"hybrid"}}
	in, err := single("hybrid", "reference_switch", seed, opt.sizes.hybridUS, spec, sweep.GenericMeasure, tr)
	if err != nil {
		return nil, err
	}
	in.gen = wl.Config(0)
	in.check = func(cr sweep.CellResult) string {
		for _, unit := range []string{"frames", "bytes"} {
			off, del, drp := cr.V("bg_offered_"+unit), cr.V("bg_delivered_"+unit), cr.V("bg_dropped_"+unit)
			if off != del+drp {
				return fmt.Sprintf("hybrid conservation broken: %s offered %.0f != delivered %.0f + dropped %.0f", unit, off, del, drp)
			}
		}
		return ""
	}

	// The accuracy the speed is bought with: the same paced latency
	// probes behind background traffic, once cycle-accurate and once
	// hybrid. Untimed, and exact for a seed.
	cal := sweep.Spec{
		Name: "hybrid-cal", Boards: []string{"sume"}, Projects: []string{"reference_switch"},
		Workloads:  []sweep.Workload{{Name: "imix", Flows: 8}},
		Seeds:      []uint64{seed + 1}, // one explicit seed (non-zero) so both fidelities draw the same traffic
		Fidelities: []string{"full", "hybrid"},
		Params:     []sweep.Axis{{Name: "frame", Values: []string{"64"}}, {Name: "bg", Values: []string{"6"}}},
		WindowUS:   100,
	}
	rs, err := sweep.RunGroups(context.Background(), &fleet.Runner{Workers: 1},
		[]sweep.Group{{Spec: cal, Measure: sweep.LatencyMeasure}}, "")
	if err != nil {
		return nil, err
	}
	for _, f := range rs.Failed() {
		return nil, fmt.Errorf("calibration cell %s: %s", f.Cell.Key, f.Err)
	}
	full, hyb := rs.Cells[0].V("latency_p99_ps"), rs.Cells[1].V("latency_p99_ps")
	errPct := math.Abs(hyb-full) / full * 100
	in.p99ErrPct = &errPct
	return in, nil
}

func buildPaper(opt options, tr *tracer) (*instance, error) {
	seed, filter := opt.seed, opt.sizes.paperFilter
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	cfg, err := sweep.LoadConfig(filepath.Join(root, "examples", "paper.sweep"))
	if err != nil {
		return nil, err
	}
	groups, err := experiments.GroupsForConfig(cfg)
	if err != nil {
		return nil, err
	}
	golden, err := sweep.ReadGolden(filepath.Join(root, "internal", "experiments", "testdata", "golden_sweep.json"))
	if err != nil {
		return nil, err
	}
	ids := map[string]string{}
	for _, id := range cfg.Experiments {
		d, _ := experiments.DefByID(id) // GroupsForConfig resolved it above
		for _, g := range d.Groups {
			ids[g.Spec.Name] = id
		}
	}
	for _, s := range cfg.Scenarios {
		ids[s.Name] = s.Name
	}
	base := seed
	if seed == defaultSeed {
		base = golden.Seed
	}
	if base != golden.Seed {
		golden = nil // another seed: rep-to-rep identity is the check
	}
	plan, err := compile(groups, filter, base, tr)
	if err != nil {
		return nil, err
	}
	return &instance{plan: plan, workers: workers, pass: localPass(plan, workers, tr),
		golden: golden, filtered: filter != "", paperID: ids}, nil
}

// buildTiny is the fleet execution path: many cells that each simulate
// 10 us, through two in-process session workers and into a result store.
// reference_router is left out on purpose: GenericMeasure ends with
// RunUntilIdle(0) and the router's periodic agent never lets the queue
// drain, so such a cell hangs.
func buildTiny(opt options, tr *tracer) (*instance, error) {
	seed := opt.seed
	seeds := make([]uint64, opt.sizes.tinySeeds)
	for i := range seeds {
		seeds[i] = seed<<16 + uint64(i) + 1
	}
	spec := sweep.Spec{
		Name:     "tiny",
		Boards:   []string{"sume", "10g", "1g-cml"},
		Projects: []string{"reference_switch", "reference_nic", "blueswitch", "reference_iotest"},
		Workloads: []sweep.Workload{{Name: "imix"},
			{Name: "min", Sizes: traffic.FixedSize(60)}},
		BERs:     []float64{0, 1e-6},
		Seeds:    seeds,
		WindowUS: 10,
	}
	plan, err := compile([]sweep.Group{{Spec: spec, Measure: sweep.GenericMeasure}}, "", seed, tr)
	if err != nil {
		return nil, err
	}
	return &instance{plan: plan, workers: workers, frames: true, session: true,
		pass: func() (*sweep.Results, error) { return fleetPass(plan, opt.out, tr) }}, nil
}

// fleetPass runs the plan through shard.Fleet over two in-process
// session workers, appends every adopted cell to a fresh result store
// under dir, and merges the run, as `nf-bench sweep -fleet` does.
func fleetPass(plan *sweep.Plan, dir string, tr *tracer) (*sweep.Results, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	st, err := resultstore.Open(tmp)
	if err != nil {
		return nil, err
	}
	rw, err := st.Begin(resultstore.Meta{Run: "run-fleet", Seed: plan.BaseSeed, Partial: true})
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	planFor := func(shard.Request) (*sweep.Plan, error) { return plan, nil }
	var requeues atomic.Int64
	fl := &shard.Fleet{
		Req: shard.Request{Seed: plan.BaseSeed, Workers: 1},
		OnEvent: func(ev shard.FleetEvent) {
			if ev.Kind == "death" || ev.Kind == "hang" {
				requeues.Add(int64(ev.Cells))
			}
		},
	}
	for i := 0; i < workers; i++ {
		fl.Endpoints = append(fl.Endpoints, shard.PipeWorker(ctx, fmt.Sprintf("pipe:%d", i), planFor))
	}
	appendSite := tr.site(nil, "resultstore.append", 1)
	start := time.Now()
	n := 0
	var appendErr error
	rs, util, err := fl.Run(ctx, plan, func(cr sweep.CellResult) {
		if n++; n == 1 {
			tr.gauge("fleet.first_result_ms", float64(time.Since(start))/1e6)
		}
		t0 := appendSite.start()
		err := rw.Append(resultstore.Record{
			Key: cr.Cell.Key, Digest: cr.Digest, Seed: cr.Seed, Values: cr.Values, Labels: cr.Labels,
			SimPS: int64(cr.SimTime), Events: cr.Events, Err: cr.Err,
		})
		appendSite.stop(t0)
		if err != nil && appendErr == nil {
			appendErr = err
		}
	})
	tr.gauge("shard.fleet_run_ms", float64(time.Since(start))/1e6)
	appendSite.close()
	if cerr := rw.Close(); err == nil && appendErr == nil {
		appendErr = cerr
	}
	if err != nil {
		return nil, err
	}
	if appendErr != nil {
		return nil, appendErr
	}
	mergeSite := tr.site(nil, "resultstore.merge_runs", 1)
	t0 := mergeSite.start()
	_, err = st.MergeRuns(resultstore.Meta{Run: "run", Seed: plan.BaseSeed}, []string{"run-fleet"}, plan.Keys())
	mergeSite.stop(t0)
	mergeSite.close()
	if err != nil {
		return nil, err
	}

	if tr != nil {
		if fi, err := os.Stat(filepath.Join(tmp, "runs", "run.jsonl")); err == nil {
			tr.gauge("resultstore.bytes_per_cell", float64(fi.Size())/float64(len(plan.Cells)))
		}
		lo, hi := math.MaxInt, 0
		for _, r := range fl.Reports {
			lo, hi = min(lo, r.Cells), max(hi, r.Cells)
		}
		if hi > 0 && len(fl.Reports) == workers {
			tr.gauge("shard.worker_balance", float64(lo)/float64(hi))
		}
		tr.gauge("shard.requeues", float64(requeues.Load()))
		tr.gauge("fleet.efficiency", util.Efficiency)
	}
	return rs, nil
}
