package sweep

import (
	"context"
	"strings"
	"testing"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/projects"
	"repro/netfpga/workload"
)

// TestRouterGenericMeasureTerminates is the regression for the router
// hanging under GenericMeasure: its agents poll with dev.Every, so the
// event queue never empties and RunUntilIdle(0) used to spin forever.
// 10 us router cells must run to completion, and stop at the same event
// on one worker and on a pool.
func TestRouterGenericMeasureTerminates(t *testing.T) {
	g := Group{
		Spec: Spec{
			Name:      "router",
			Boards:    []string{"sume"},
			Projects:  []string{"reference_router"},
			Workloads: []Workload{{Name: "imix"}},
			Seeds:     []uint64{1, 2},
			WindowUS:  10,
		},
		Measure: GenericMeasure,
	}
	run := func(workers int) []CellResult {
		rs, err := RunGroups(context.Background(), &Runner{Workers: workers}, []Group{g}, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Cells) != 2 || rs.Cells[0].Err != "" || rs.Cells[1].Err != "" {
			t.Fatalf("router cells: %+v", rs.Cells)
		}
		return rs.Cells
	}
	one, pool := run(1), run(2)
	for i, c := range one {
		// An unconfigured router forwards nothing; the frames still have
		// to enter it and be looked up.
		if c.V("sent") == 0 || c.Events == 0 || c.SimTime < 10*netfpga.Microsecond {
			t.Fatalf("router cell did not run: %+v", c)
		}
		if p := pool[i]; c.Digest != p.Digest || c.Events != p.Events || c.SimTime != p.SimTime {
			t.Fatalf("workers 1 vs 2 diverge: digest %s/%s events %d/%d sim %d/%d",
				c.Digest, p.Digest, c.Events, p.Events, c.SimTime, p.SimTime)
		}
	}
}

// legacyQueueDrops is the name-matching sum QueueDrops used before
// counters declared their kind, kept here as the reference.
func legacyQueueDrops(stats map[string]uint64) uint64 {
	var total uint64
	for k, v := range stats {
		if !strings.HasSuffix(k, "drops") {
			continue
		}
		if strings.Contains(k, "fifo") || strings.HasPrefix(k, "oq") ||
			strings.Contains(k, "port") && strings.Contains(k, "_drops") {
			total += v
		}
	}
	return total
}

// overload builds project on board and offers every port far more than
// it can forward for 60 us, so receive FIFOs and output queues overflow.
func overload(t *testing.T, board string, e projects.Entry) *netfpga.Device {
	t.Helper()
	b, _ := Board(board)
	dev := netfpga.NewDevice(b, netfpga.Options{Seed: 3})
	if err := e.New().Build(dev); err != nil {
		t.Fatalf("%s/%s: %v", board, e.Name, err)
	}
	gen, err := workload.New(workload.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for slice := 0; slice < 30; slice++ {
		for i := 0; i < dev.Board.Ports; i++ {
			tap := dev.Tap(i)
			tap.SetCounting(true)
			for k := 0; k < 24; k++ {
				tap.Send(gen.NextView())
			}
		}
		dev.RunFor(2 * netfpga.Microsecond)
	}
	return dev
}

// TestQueueDropsByKind: the kind-declared sum equals the old
// name-matching sum on every board x project pair the shipped sweeps
// use, after a window that really drops.
func TestQueueDropsByKind(t *testing.T) {
	var total uint64
	for _, board := range BoardNames() {
		for _, e := range projects.All() {
			dev := overload(t, board, e)
			got, want := QueueDrops(dev), legacyQueueDrops(dev.Dsn.Stats())
			if got != want {
				t.Errorf("%s/%s: QueueDrops = %d, name-matching sum = %d", board, e.Name, got, want)
			}
			total += got
		}
	}
	if total == 0 {
		t.Fatal("no pair dropped a frame: the comparison is vacuous")
	}
}

// suspectModule is a user module whose counter names would have matched
// the old substring rules.
type suspectModule struct {
	supportDrops, portXDrops uint64
	ctrs                     hw.Counters
}

func (m *suspectModule) Name() string            { return "user_fifo_port" }
func (m *suspectModule) Tick() bool              { return false }
func (m *suspectModule) Resources() hw.Resources { return hw.Resources{} }
func (m *suspectModule) Counters() *hw.Counters  { return &m.ctrs }

// TestQueueDropsIgnoresCounterNames: a user counter named support_drops
// (it contains "port" and "_drops") used to be summed into every
// sweep's drops value. Kinds make the name irrelevant: only a counter
// registered as hw.QueueDrop counts, under any name.
func TestQueueDropsIgnoresCounterNames(t *testing.T) {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{NoHost: true})
	m := &suspectModule{supportDrops: 7, portXDrops: 11}
	m.ctrs.Add("support_drops", &m.supportDrops)
	m.ctrs.AddCounter(hw.Counter{Name: "lost", Ptr: &m.portXDrops, Kind: hw.QueueDrop})
	dev.Dsn.AddModule(m)

	st := dev.Dsn.Stats()
	if st["user_fifo_port.support_drops"] != 7 || st["user_fifo_port.lost"] != 11 {
		t.Fatalf("stats = %v", st)
	}
	if legacyQueueDrops(st) != 7 {
		t.Fatalf("the old rules should have summed support_drops, got %d", legacyQueueDrops(st))
	}
	if got := QueueDrops(dev); got != 11 {
		t.Fatalf("QueueDrops = %d, want 11 (the QueueDrop-kind counter only)", got)
	}
}

// TestSnapshotsAreIndependent: OutputPortLookup and CAM used to hand
// out one cached map, so two snapshots aliased. Every Stats, Snapshot
// and Map call now returns its own map.
func TestSnapshotsAreIndependent(t *testing.T) {
	e, _ := projects.ByName("reference_switch")
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{Seed: 1})
	if err := e.New().Build(dev); err != nil {
		t.Fatal(err)
	}
	const key = "switch_output_port_lookup.lookups"
	send := func() {
		dev.Tap(0).Send(make([]byte, 60))
		dev.RunFor(5 * netfpga.Microsecond)
	}
	send()
	stats1, snap1 := dev.Dsn.Stats(), dev.Snapshot()
	send()
	stats2, snap2 := dev.Dsn.Stats(), dev.Snapshot()
	if stats1[key] != 1 || stats2[key] != 2 {
		t.Fatalf("Design.Stats lookups = %d then %d, want 1 then 2", stats1[key], stats2[key])
	}
	if snap1["design."+key] != 1 || snap2["design."+key] != 2 {
		t.Fatalf("Snapshot lookups = %d then %d, want 1 then 2", snap1["design."+key], snap2["design."+key])
	}
	stats2[key] = 99
	if again := dev.Dsn.Stats(); again[key] != 2 {
		t.Fatalf("writing a returned map changed the next one: %d", again[key])
	}
}
