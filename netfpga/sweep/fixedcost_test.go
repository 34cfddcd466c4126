package sweep

import (
	"runtime"
	"testing"

	"repro/netfpga"
	"repro/netfpga/projects"
)

// fixedCostCeilings bounds what one sweep cell pays before and after
// its traffic, per project on SUME: NewDevice + Build + Snapshot +
// QueueDrops. Heap allocations and bytes are deterministic for a given
// Go release, so this is an exact budget, not a timing: ceilings sit
// about 1.2x above the values measured when the counter spine landed
// (in the comments). Before it, the per-module Stats maps, the
// pre-sized 1 MiB CAM arena and the map-backed register files cost
// 956-1199 allocations and 85-1132 KB here.
var fixedCostCeilings = []struct {
	project       string
	allocs, bytes float64
}{
	{"reference_switch", 480, 51000}, // 399 allocs, 42248 B
	{"reference_nic", 545, 56000},    // 454 allocs, 46764 B
	{"blueswitch", 500, 51000},       // 416 allocs, 42224 B
	{"reference_iotest", 540, 55500}, // 450 allocs, 46138 B
}

func TestPerCellFixedCostBudget(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("race and coverage instrumentation change what is allocated")
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
			if len(dev.Snapshot()) == 0 || QueueDrops(dev) != 0 {
				t.Fatal("a fresh device must snapshot counters and no drops")
			}
		}
		const runs = 20
		allocs := testing.AllocsPerRun(runs, cell)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			cell()
		}
		runtime.ReadMemStats(&m1)
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
		t.Logf("%-17s %4.0f allocs  %6.0f bytes per cell", c.project, allocs, bytes)
		if allocs > c.allocs {
			t.Errorf("%s: %.0f allocations per cell, budget %.0f", c.project, allocs, c.allocs)
		}
		if bytes > c.bytes {
			t.Errorf("%s: %.0f bytes per cell, budget %.0f", c.project, bytes, c.bytes)
		}
	}
}
