package experiments

import (
	"context"
	"runtime"
	"testing"

	"repro/netfpga/fleet"
	"repro/netfpga/sweep"
)

// paperCellBudgets pin what one paper-sweep cell may allocate, about
// 1.2x what it does (the achieved values are in the comments; the test
// logs the current ones). They exist so a measure that quietly goes back
// to capturing every frame it only counts, or a completion path that
// goes back to a timer and a closure per access, fails a test instead of
// a benchmark. When a cell's real work changes, re-pin from the log.
var paperCellBudgets = []struct {
	key     string
	mallocs uint64
	bytes   uint64
}{
	{"T1/board=sume/project=reference_iotest/frame=64", 12100, 1_110_000}, // 10082 mallocs,  922696 B (parent: 10226, 4850584)
	{"T2/dev=qdr/pattern=seq-64", 2200, 3_410_000},                        //  1800 mallocs, 2840936 B (parent: 262939, 14922928)
	{"T2/dev=ddr3/pattern=seq-64", 2200, 3_410_000},                       //  1801 mallocs, 2841224 B (parent: 262940, 14923152)
	{"T3/project=reference_nic/pcie=gen3/frame=64", 2100, 230_000},        //  1758 mallocs,  190840 B (parent: 106019, 9463568)
	{"T6a/rate=9000", 6300, 1_820_000},                                    //  5262 mallocs, 1518280 B (parent: 11317, 8969128)
}

func TestPaperCellAllocationBudget(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("race and coverage instrumentation change what is allocated")
	}
	groups := paperGroups(t)
	for _, c := range paperCellBudgets {
		run := func() {
			rs, err := sweep.RunGroups(context.Background(), &fleet.Runner{Workers: 1}, groups, c.key)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Cells) != 1 || len(rs.Failed()) != 0 {
				t.Fatalf("filter %q ran %d cells, %d failed; want exactly one clean cell", c.key, len(rs.Cells), len(rs.Failed()))
			}
		}
		run() // package-level lazy state is not the cell's
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		mallocs, bytes := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		t.Logf("%-48s %7d mallocs  %8d bytes", c.key, mallocs, bytes)
		if mallocs > c.mallocs {
			t.Errorf("%s: %d mallocs, budget %d", c.key, mallocs, c.mallocs)
		}
		if bytes > c.bytes {
			t.Errorf("%s: %d bytes allocated, budget %d", c.key, bytes, c.bytes)
		}
	}
}
