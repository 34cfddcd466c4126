package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/netfpga"
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
	{"T1/board=sume/project=reference_iotest/frame=64", 12100, 1_320_000}, //  9918 mallocs, 1100672 B (parent: 10226, 4850584)
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
			rs, err := sweep.RunGroups(context.Background(), &sweep.Runner{Workers: 1}, groups, c.key)
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

// paperPassBudget pins what a warm pass of the whole paper plan
// allocates on one worker — the second Execute of one plan, whose
// device cache the first filled — at about 1.2x what it does: 73522
// mallocs and 36703808 bytes (before devices recycled the frames they
// left in flight: 518934 mallocs and 56.8 MB). The test logs the
// current values; re-pin from the log when a cell's real work changes.
var paperPassBudget = struct{ mallocs, bytes uint64 }{88_200, 44_050_000}

func TestPaperPassAllocationBudget(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("race and coverage instrumentation change what is allocated")
	}
	plan, err := sweep.PlanGroups(paperGroups(t), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	pass := func() {
		ch, rs, _ := plan.Execute(context.Background(), &sweep.Runner{Workers: 1})
		for range ch {
		}
		if f := rs.Failed(); len(f) != 0 {
			t.Fatalf("cell %s failed: %s", f[0].Cell.Key, f[0].Err)
		}
	}
	pass()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pass()
	runtime.ReadMemStats(&m1)
	mallocs, bytes := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	t.Logf("warm pass: %d mallocs  %d bytes  %d GCs", mallocs, bytes, m1.NumGC-m0.NumGC)
	if mallocs > paperPassBudget.mallocs {
		t.Errorf("%d mallocs, budget %d", mallocs, paperPassBudget.mallocs)
	}
	if bytes > paperPassBudget.bytes {
		t.Errorf("%d bytes allocated, budget %d", bytes, paperPassBudget.bytes)
	}
}

// TestPaperPassesBuildOneDevicePerKeyPerWorker: over three two-worker
// passes of the paper plan, every cache key — a registry board, or the
// board T3 derives per cell — is served by at most two devices, one per
// worker: the cache never drops a device a later cell of its key would
// take, so a pass after the first builds only a key's second device,
// the first time two cells of it run at once. The parent built 28
// devices on every warm pass.
func TestPaperPassesBuildOneDevicePerKeyPerWorker(t *testing.T) {
	const workers, passes = 2, 3
	groups := paperGroups(t)
	var mu sync.Mutex
	devKey := map[*netfpga.Device]string{}
	built := make([]int, passes)
	pass := 0
	for i := range groups {
		spec, m := groups[i].Spec, groups[i].Measure
		if len(spec.Projects) == 0 || spec.NoBuild || spec.NoDevice {
			continue // built for its cell
		}
		groups[i].Measure = func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
			key := fmt.Sprint(cell.Board, "|", cell.Project, "|", cell.BER, "|", cell.Fidelity, "|", spec.NoHost)
			if spec.BoardFor != nil {
				b, err := spec.BoardFor(cell)
				if err != nil {
					return sweep.Outcome{}, err
				}
				key += fmt.Sprintf("|%#v", b.PCIe)
			}
			mu.Lock()
			if _, ok := devKey[c.Dev]; !ok {
				devKey[c.Dev] = key
				built[pass]++
			}
			mu.Unlock()
			return m(c, cell)
		}
	}
	plan, err := sweep.PlanGroups(groups, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := range passes {
		mu.Lock()
		pass = p
		mu.Unlock()
		ch, rs, _ := plan.Execute(context.Background(), &sweep.Runner{Workers: workers})
		for range ch {
		}
		if f := rs.Failed(); len(f) != 0 {
			t.Fatalf("cell %s failed: %s", f[0].Cell.Key, f[0].Err)
		}
	}
	perKey := map[string]int{}
	for _, k := range devKey {
		perKey[k]++
	}
	for k, n := range perKey {
		if n > workers {
			t.Errorf("%d devices served key %s, more than %d workers", n, k, workers)
		}
	}
	t.Logf("%d keys, %d devices; built per pass %v", len(perKey), len(devKey), built)
}
