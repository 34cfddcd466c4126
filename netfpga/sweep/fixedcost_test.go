package sweep

import (
	"context"
	"runtime"
	"testing"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/projects"
	"repro/netfpga/workload"
)

// fixedCostCeilings bounds what one sweep cell pays around its traffic,
// per project on SUME, in heap allocations and bytes. These are counts,
// not timings, deterministic for a given Go release, so each ceiling is
// the measured value. A cell on a freshly built device pays NewDevice +
// Build + QueueDrops; a cell on a device its plan reuses pays the
// device's and the project's Reset plus the same reads, and nothing
// else. Before the counter spine, the per-module Stats maps, the
// pre-sized 1 MiB CAM arena and the map-backed register files cost
// 956-1199 allocations and 85-1132 KB per fresh cell.
var fixedCostCeilings = []struct {
	project       string
	allocs, bytes float64 // fresh build
	resetAllocs   float64
	resetBytes    float64
}{
	{"reference_switch", 274, 33448, 0, 0},
	{"reference_nic", 305, 37072, 0, 0},
	{"blueswitch", 288, 33440, 0, 0},
	{"reference_iotest", 301, 36552, 0, 0},
}

// generatorCeiling bounds two cells' workload generators and their first
// 64 frames each, built by workload.New or reset in place by a plan that
// reuses them, measured like fixedCostCeilings. A reused generator
// allocates nothing: its pkt.SerializeBuffer keeps the headroom its
// largest frame grew.
var generatorCeiling = struct {
	allocs, bytes, resetAllocs, resetBytes float64
}{124, 45008, 0, 0}

func TestPerCellFixedCostBudget(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("race and coverage instrumentation change what is allocated")
	}
	// One P, and the least of several samples: what else the runtime
	// allocates meanwhile only ever adds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs, bytes, resetAllocs, resetBytes := generatorCost(t)
	t.Logf("%-17s fresh %4.0f allocs %6.0f bytes   reset %.0f allocs %.0f bytes per two cells",
		"workload.Generator", allocs, bytes, resetAllocs, resetBytes)
	if c := generatorCeiling; allocs > c.allocs || bytes > c.bytes || resetAllocs > c.resetAllocs || resetBytes > c.resetBytes {
		t.Errorf("generator: fresh %.0f allocations and %.0f bytes, reused %.0f and %.0f; budget %.0f, %.0f, %.0f and %.0f",
			allocs, bytes, resetAllocs, resetBytes, c.allocs, c.bytes, c.resetAllocs, c.resetBytes)
	}
	for _, c := range fixedCostCeilings {
		entry, ok := projects.ByName(c.project)
		if !ok {
			t.Fatalf("unknown project %s", c.project)
		}
		cell := func() {
			dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{Seed: 1})
			if err := entry.New().Build(dev); err != nil {
				t.Fatal(err)
			}
			if QueueDrops(dev) != 0 {
				t.Fatal("a fresh device must report no drops")
			}
		}
		allocs, bytes := leastCost(5, func() {}, func() { // per cell, over 20-cell samples
			for i := 0; i < 20; i++ {
				cell()
			}
		})
		allocs, bytes = allocs/20, bytes/20
		resetAllocs, resetBytes := resetCost(t, entry)
		t.Logf("%-17s fresh %4.0f allocs %6.0f bytes   reset %.0f allocs %.0f bytes per cell",
			c.project, allocs, bytes, resetAllocs, resetBytes)
		if allocs > c.allocs || bytes > c.bytes {
			t.Errorf("%s: %.0f allocations and %.0f bytes per fresh cell, budget %.0f and %.0f",
				c.project, allocs, bytes, c.allocs, c.bytes)
		}
		if resetAllocs > c.resetAllocs || resetBytes > c.resetBytes {
			t.Errorf("%s: %.0f allocations and %.0f bytes per reset, budget %.0f and %.0f",
				c.project, resetAllocs, resetBytes, c.resetAllocs, c.resetBytes)
		}
	}
}

// leastCost runs setup and then f samples times and returns the fewest
// heap allocations and bytes one run of f made.
func leastCost(samples int, setup, f func()) (allocs, bytes float64) {
	var m0, m1 runtime.MemStats
	for i := 0; i < samples; i++ {
		setup()
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		a, b := float64(m1.Mallocs-m0.Mallocs), float64(m1.TotalAlloc-m0.TotalAlloc)
		if i == 0 || a < allocs {
			allocs = a
		}
		if i == 0 || b < bytes {
			bytes = b
		}
	}
	return allocs, bytes
}

// generatorCost measures two cells' workload generators drawing 64
// frames each, one cell with the IMIX and one with the minimum-size mix,
// as tiny_fleet alternates them: built by workload.New, and reset in place once
// a warm-up has built every (flow, size) frame, as a plan's reused
// generator has after its first cells.
func generatorCost(t *testing.T) (allocs, bytes, resetAllocs, resetBytes float64) {
	cfgs := []workload.Config{{}, {Sizes: workload.FixedSize(60)}}
	var seed uint64
	pair := func(next func(cfg workload.Config) *workload.Generator) func() {
		return func() {
			for _, cfg := range cfgs {
				seed++
				cfg.Seed = seed
				g := next(cfg)
				for i := 0; i < 64; i++ {
					g.NextView()
				}
			}
		}
	}
	allocs, bytes = leastCost(5, func() {}, pair(func(cfg workload.Config) *workload.Generator {
		g, err := workload.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}))
	g, err := workload.New(workload.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		g.NextView()
	}
	resetAllocs, resetBytes = leastCost(5, func() {}, pair(func(cfg workload.Config) *workload.Generator {
		if err := g.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		return g
	}))
	return allocs, bytes, resetAllocs, resetBytes
}

// resetCost measures, on one sealed device that ran a cell of traffic
// before each sample and stopped with frames in flight, what a cell on
// a cached device pays besides its traffic: the resets at release (the
// device's and the project's) and at acquire, and the post-run reads.
func resetCost(t *testing.T, entry projects.Entry) (allocs, bytes float64) {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{Seed: 1, PortBER: 1e-6})
	proj := entry.New()
	if err := proj.Build(dev); err != nil {
		t.Fatal(err)
	}
	dev.Seal()
	gen, err := workload.New(workload.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dirty := func() {
		for p := 0; p < dev.Board.Ports; p++ {
			tap := dev.Tap(p)
			tap.SetCounting(true)
			for k := 0; k < 8; k++ {
				tap.Send(gen.NextView())
			}
		}
		dev.RunFor(3 * netfpga.Microsecond)
	}
	var seed uint64
	return leastCost(5, dirty, func() {
		seed++
		if !dev.Reset(0) { // at release
			t.Fatal("device did not reset")
		}
		proj.(hw.Resetter).Reset()
		dev.Reseed(seed) // at acquire
		if QueueDrops(dev) != 0 || dev.Now() != 0 || dev.Sim.Executed() != 0 {
			t.Fatal("a reset device must read as fresh")
		}
	})
}

// runCellCeiling bounds what Plan.RunCell pays around a measure: a
// no-device cell whose measure returns a constant outcome, measured like
// fixedCostCeilings. It is the seed, the context and its RNG, the
// measure's call and the sealed result's digest; before a cell was a
// call, the one-job pool it ran in made this cell 18 allocations and
// 1168 bytes.
var runCellCeiling = struct{ allocs, bytes float64 }{6, 248}

func TestRunCellFixedCostBudget(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("race and coverage instrumentation change what is allocated")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	constant := Outcome{Values: map[string]float64{"v": 1}}
	g := Group{Spec: Spec{Name: "const", NoDevice: true},
		Measure: func(*Ctx, Cell) (Outcome, error) { return constant, nil }}
	plan, err := PlanGroups([]Group{g}, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	key := plan.Cells[0].Key
	ctx := context.Background()
	allocs, bytes := leastCost(5, func() {}, func() {
		for i := 0; i < 100; i++ {
			if cr, err := plan.RunCell(ctx, key, 0, 0, "", nil); err != nil || cr.Err != "" {
				t.Fatal(err, cr.Err)
			}
		}
	})
	allocs, bytes = allocs/100, bytes/100
	t.Logf("RunCell, no device, constant outcome: %.0f allocs %.0f bytes per cell", allocs, bytes)
	if allocs > runCellCeiling.allocs || bytes > runCellCeiling.bytes {
		t.Errorf("%.0f allocations and %.0f bytes per cell, budget %.0f and %.0f",
			allocs, bytes, runCellCeiling.allocs, runCellCeiling.bytes)
	}
}
