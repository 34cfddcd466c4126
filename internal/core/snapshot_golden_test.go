package core_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/netfpga"
	"repro/netfpga/projects"
	"repro/netfpga/sweep"
	"repro/netfpga/workload"
)

var updateSnapshotGolden = flag.Bool("update-snapshot-golden", false,
	"rewrite testdata/snapshot_golden.json from this tree (run at the commit whose output is the contract)")

// goldenReg is one register of a mounted block as a driver sees it.
type goldenReg struct {
	Name   string `json:"name"`
	Offset uint32 `json:"offset"`
	Value  uint32 `json:"value"`
}

// goldenBlock is one mounted register file.
type goldenBlock struct {
	Base  uint32      `json:"base"`
	Block string      `json:"block"`
	Regs  []goldenReg `json:"regs"`
}

// goldenDevice is everything a (board, project) device exports after
// the loaded window: the full snapshot and every register block.
type goldenDevice struct {
	Snapshot   map[string]uint64 `json:"snapshot"`
	QueueDrops uint64            `json:"queue_drops"`
	Blocks     []goldenBlock     `json:"blocks"`
}

// loadedDevice builds project on board and drives fixed-seed traffic
// through every port (and the host queues when the board has a host)
// for slices x 2 us, so counters and gauges are all non-trivial; a long
// window also overflows the receive FIFOs and output queues.
func loadedDevice(t testing.TB, board, project, fidelity string, slices int) *netfpga.Device {
	t.Helper()
	dev, _, err := builtDevice(t, board, project, netfpga.Options{Seed: 7, Fidelity: fidelity})
	if err != nil {
		t.Fatalf("%s/%s: build: %v", board, project, err)
	}
	load(t, dev, 7, slices, true)
	return dev
}

// builtDevice instantiates a registry board under opts and builds a
// registry project on it.
func builtDevice(t testing.TB, board, project string, opts netfpga.Options) (*netfpga.Device, netfpga.Project, error) {
	t.Helper()
	b, ok := sweep.Board(board)
	if !ok {
		t.Fatalf("unknown board %q", board)
	}
	return builtOn(t, b, project, opts)
}

// builtOn is builtDevice on a board spec.
func builtOn(t testing.TB, b netfpga.BoardSpec, project string, opts netfpga.Options) (*netfpga.Device, netfpga.Project, error) {
	t.Helper()
	entry, ok := projects.ByName(project)
	if !ok {
		t.Fatalf("unknown project %q", project)
	}
	dev := netfpga.NewDevice(b, opts)
	proj := entry.New()
	return dev, proj, proj.Build(dev)
}

// load is loadedDevice's traffic: a workload seeded with seed, taps
// counting or capturing.
func load(t testing.TB, dev *netfpga.Device, seed uint64, slices int, counting bool) {
	t.Helper()
	gen, err := workload.New(workload.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dev.Board.Ports; i++ {
		dev.Tap(i).SetCounting(counting)
	}
	for slice := 0; slice < slices; slice++ {
		for i := 0; i < dev.Board.Ports; i++ {
			for k := 0; k < 24; k++ {
				dev.Tap(i).Send(gen.NextView())
			}
			if dev.Driver != nil {
				for k := 0; k < 4; k++ {
					dev.Driver.Send(gen.Next(), i%dev.Board.Ports)
				}
			}
		}
		if bg := dev.Background(); bg != nil {
			bg.Offer(slice%min(2, bg.Ports()), 40, 40*900) // ports 2+ stay idle: their bg.* keys must stay absent
		}
		dev.RunFor(2 * netfpga.Microsecond)
	}
}

func exportDevice(t testing.TB, dev *netfpga.Device) goldenDevice {
	t.Helper()
	g := goldenDevice{Snapshot: dev.Snapshot(), QueueDrops: sweep.QueueDrops(dev)}
	for _, blk := range dev.Regs.Blocks() {
		gb := goldenBlock{Base: blk.Base, Block: blk.RF.Name()}
		for _, name := range blk.RF.Names() {
			off, ok := blk.RF.OffsetOf(name)
			if !ok {
				t.Fatalf("block %s lists %q but OffsetOf misses it", gb.Block, name)
			}
			v, err := blk.RF.Read(off)
			if err != nil {
				t.Fatalf("block %s read %s: %v", gb.Block, name, err)
			}
			gb.Regs = append(gb.Regs, goldenReg{Name: name, Offset: off, Value: v})
		}
		g.Blocks = append(g.Blocks, gb)
	}
	return g
}

// goldenCase is one device of the table.
type goldenCase struct {
	board, project, fidelity string
	slices                   int // 2 us each
}

func (c goldenCase) key() string {
	k := fmt.Sprintf("%s/%s/%dus", c.board, c.project, 2*c.slices)
	if c.fidelity != "" {
		k += "/" + c.fidelity
	}
	return k
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, board := range []string{"sume", "10g", "1g-cml"} {
		for _, e := range projects.All() {
			cases = append(cases, goldenCase{board, e.Name, "", 5})
		}
	}
	// Long enough to tail-drop: the drop counters and their kinds.
	for _, e := range projects.All() {
		cases = append(cases, goldenCase{"sume", e.Name, "", 40})
	}
	// The hybrid model's bg.* block rides the same spine; the long case
	// completes background batches, so delivered counts and a settled
	// backlog are pinned too.
	cases = append(cases, goldenCase{"sume", "reference_switch", netfpga.FidelityHybrid, 5},
		goldenCase{"sume", "reference_switch", netfpga.FidelityHybrid, 40})
	return cases
}

// TestSnapshotGolden pins the counter and register contract: every key
// and value of Device.Snapshot, and the name, offset and value of
// every mounted register, on every project x {sume,10g,1g-cml} after a
// fixed-seed loaded window, against a table generated before the
// counter spine replaced the per-module Stats maps.
func TestSnapshotGolden(t *testing.T) {
	path := filepath.Join("testdata", "snapshot_golden.json")
	got := map[string]goldenDevice{}
	for _, c := range goldenCases() {
		got[c.key()] = exportDevice(t, loadedDevice(t, c.board, c.project, c.fidelity, c.slices))
	}
	if *updateSnapshotGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d devices)", path, len(got))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenDevice
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d devices, this tree builds %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: in golden, not built", key)
			continue
		}
		if g.QueueDrops != w.QueueDrops {
			t.Errorf("%s: QueueDrops = %d, golden %d", key, g.QueueDrops, w.QueueDrops)
		}
		for _, d := range diffCounters(w.Snapshot, g.Snapshot) {
			t.Errorf("%s: snapshot %s", key, d)
		}
		if !reflect.DeepEqual(g.Blocks, w.Blocks) {
			t.Errorf("%s: register blocks differ\n got %+v\nwant %+v", key, g.Blocks, w.Blocks)
		}
	}
}

func diffCounters(want, got map[string]uint64) []string {
	var out []string
	for k, w := range want {
		if g, ok := got[k]; !ok {
			out = append(out, fmt.Sprintf("missing key %s (golden %d)", k, w))
		} else if g != w {
			out = append(out, fmt.Sprintf("%s = %d, golden %d", k, g, w))
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			out = append(out, fmt.Sprintf("extra key %s = %d", k, g))
		}
	}
	sort.Strings(out)
	return out
}
