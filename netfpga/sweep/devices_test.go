package sweep

import (
	"context"
	"sync"
	"testing"

	"repro/internal/pcie"
	"repro/netfpga"
	"repro/netfpga/workload"
)

// tinyFleetSpec is the shape of the benchmark's tiny_fleet workload —
// its three boards and four projects, both workloads and BERs — with
// three seeds per combination instead of 64.
func tinyFleetSpec() Spec {
	return Spec{
		Name:     "tiny",
		Boards:   []string{"sume", "10g", "1g-cml"},
		Projects: []string{"reference_switch", "reference_nic", "blueswitch", "reference_iotest"},
		Workloads: []Workload{{Name: "imix"},
			{Name: "min", Sizes: workload.FixedSize(60)}},
		BERs:     []float64{0, 1e-6},
		Seeds:    []uint64{1, 2, 3},
		WindowUS: 10,
	}
}

// TestTinyFleetPairsReusable: every (board, project) pair tiny_fleet
// runs is served by a reset device from the second cell of a
// combination on — so a module or project added without Reset cannot
// quietly turn reuse off while every golden stays green — and every
// cell digests exactly as it does on a freshly built device.
func TestTinyFleetPairsReusable(t *testing.T) {
	var mu sync.Mutex
	served := map[string]*netfpga.Device{}
	spec := tinyFleetSpec()
	record := func(c *Ctx, cell Cell) (Outcome, error) {
		mu.Lock()
		served[cell.Key] = c.Dev
		mu.Unlock()
		return GenericMeasure(c, cell)
	}
	plan, err := PlanGroups([]Group{{Spec: spec, Measure: record}}, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	ch, rs, err := plan.Execute(context.Background(), &Runner{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for range ch {
	}

	pairs := map[[2]string]bool{}
	for i, cr := range rs.Cells {
		if cr.Err != "" {
			t.Fatalf("cell %s: %s", cr.Cell.Key, cr.Err)
		}
		if cr.Seed == 1 {
			continue
		}
		// Seeds are the innermost axis: the cell before this one ran the
		// same combination, and its device must have been reset for this.
		prev := rs.Cells[i-1].Cell.Key
		if served[cr.Cell.Key] != served[prev] {
			t.Errorf("cell %s was built fresh, not reset from %s", cr.Cell.Key, prev)
		}
		pairs[[2]string{cr.Cell.Board, cr.Cell.Project}] = true
	}
	if want := len(spec.Boards) * len(spec.Projects); len(pairs) != want {
		t.Errorf("%d (board, project) pairs reused, want %d", len(pairs), want)
	}

	// A hooked cell builds its own device.
	for _, cr := range rs.Cells {
		fresh, err := plan.RunCell(context.Background(), cr.Cell.Key, 0, 0, "", func(*netfpga.Device) {})
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Digest != cr.Digest {
			t.Errorf("cell %s: reset device digest %s, fresh build %s", cr.Cell.Key, cr.Digest, fresh.Digest)
		}
	}
}

// TestDeviceCacheConcurrent: four workers sharing one plan's cache — and
// so trading devices between goroutines — digest every cell as a
// sequential run does.
func TestDeviceCacheConcurrent(t *testing.T) {
	groups := []Group{{Spec: tinyFleetSpec(), Measure: GenericMeasure}}
	seq, err := RunGroups(context.Background(), &Runner{Workers: 1}, groups, "")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanGroups(groups, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // the second pass starts with a full cache
		ch, rs, err := plan.Execute(context.Background(), &Runner{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for range ch {
		}
		for i, cr := range rs.Cells {
			if cr.Digest != seq.Cells[i].Digest {
				t.Errorf("pass %d: cell %s digest %s, sequential %s", pass, cr.Cell.Key, cr.Digest, seq.Cells[i].Digest)
			}
		}
	}
}

// TestDeviceCacheBounded: releasing more devices than the bound — one
// worker's idleKeysPerWorker — keeps the most recent ones, and a failed
// cell's device is not kept.
func TestDeviceCacheBounded(t *testing.T) {
	entry, _ := ProjectEntry("reference_iotest")
	var c devices
	for i := 0; i <= idleKeysPerWorker; i++ {
		_, release, err := c.acquire(netfpga.SUME(), "sume", entry, netfpga.Options{Seed: 1, ClockMHz: float64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		release(true)
	}
	if len(c.idle) != idleKeysPerWorker {
		t.Fatalf("%d idle devices, bound %d", len(c.idle), idleKeysPerWorker)
	}
	if c.idle[0].key.opts.ClockMHz != 101 {
		t.Errorf("the least recently released device was not the one evicted")
	}
	want := c.idle[0].dev
	dev, release, err := c.acquire(netfpga.SUME(), "sume", entry, netfpga.Options{Seed: 2, ClockMHz: 101})
	if err != nil {
		t.Fatal(err)
	}
	if dev != want || len(c.idle) != idleKeysPerWorker-1 {
		t.Errorf("acquire did not take the matching idle device")
	}
	release(false)
	if len(c.idle) != idleKeysPerWorker-1 {
		t.Errorf("a failed cell's device went back to the cache")
	}
}

// TestBoardForCellsReuseDevices: cells whose board a spec derives
// (BoardFor) are keyed by the board's fingerprint, so one worker builds
// one device per derived board and a second pass builds none, and two
// workers build at most one more each. Boards that differ in their PCIe
// link never share a device.
func TestBoardForCellsReuseDevices(t *testing.T) {
	var mu sync.Mutex
	devs := map[*netfpga.Device]string{}
	spec := Spec{
		Name:     "derived",
		Projects: []string{"reference_nic"},
		Params:   []Axis{{Name: "gen", Values: []string{"2", "3"}}, {Name: "n", Values: []string{"1", "2", "3", "4"}}},
		BoardFor: func(cell Cell) (netfpga.BoardSpec, error) {
			b := netfpga.SUME()
			b.PCIe.Gen = pcie.Gen(cell.Int("gen"))
			return b, nil
		},
	}
	record := func(c *Ctx, cell Cell) (Outcome, error) {
		mu.Lock()
		if g, ok := devs[c.Dev]; ok && g != cell.Str("gen") {
			t.Errorf("a gen%s device ran a gen%s cell", g, cell.Str("gen"))
		}
		devs[c.Dev] = cell.Str("gen")
		mu.Unlock()
		c.Dev.RunFor(netfpga.Microsecond)
		return Outcome{}, nil
	}
	plan, err := PlanGroups([]Group{{Spec: spec, Measure: record}}, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	pass := func(workers int) int {
		ch, rs, _ := plan.Execute(context.Background(), &Runner{Workers: workers})
		for range ch {
		}
		if f := rs.Failed(); len(f) != 0 {
			t.Fatalf("cell %s: %s", f[0].Cell.Key, f[0].Err)
		}
		mu.Lock()
		defer mu.Unlock()
		return len(devs)
	}
	if n := pass(1); n != 2 {
		t.Fatalf("one worker built %d devices for 2 boards", n)
	}
	if n := pass(1); n != 2 {
		t.Fatalf("a second pass built %d more devices", n-2)
	}
	if n := pass(2); n > 4 {
		t.Fatalf("two workers built %d devices for 2 boards", n)
	}
}

// TestSpareKeepsTheLastKept: a plan keeps one spare, the last kept, and
// hands it over once.
func TestSpareKeepsTheLastKept(t *testing.T) {
	plan, err := PlanGroups([]Group{{Spec: Spec{Name: "s", NoDevice: true}, Measure: GenericMeasure}}, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := &Ctx{devs: plan.devs}
	a, b := new(int), new(int)
	c.Keep(a)
	c.Keep(b)
	if v := c.Spare(); v != b {
		t.Fatalf("Spare returned %v, want the last kept", v)
	}
	if v := c.Spare(); v != nil {
		t.Fatalf("Spare returned %v twice", v)
	}
}
