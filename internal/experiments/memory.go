package experiments

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/netfpga/sweep"
)

// t2Patterns aligns the T2 pattern axis with display names and access
// parameters.
var t2Patterns = []struct {
	axis    string
	display string
	random  bool
	size    int
}{
	{"seq-64", "sequential 64B", false, 64},
	{"rand-64", "random 64B", true, 64},
	{"seq-512", "sequential 512B", false, 512},
	{"rand-512", "random 512B", true, 512},
}

var t2Devices = []struct {
	axis    string
	display string
}{
	{"qdr", "QDRII+"},
	{"ddr3", "DDR3"},
}

// defT2 characterises the board memories the way the SUME paper
// positions them: QDRII+ for fine-grained random state (flow tables) and
// DDR3 for bulk sequential buffering. Both devices run sequential and
// random access patterns at table-entry and packet granularity. Each
// (device, pattern) cell is one fleet job on a memory part with its own
// simulator — no board device is needed, so the cells run NoDevice.
func defT2() Def {
	// Axis values derive from the display/parameter tables above so the
	// spec and the renderer's nested iteration can never drift apart.
	devAxis := make([]string, len(t2Devices))
	for i, d := range t2Devices {
		devAxis[i] = d.axis
	}
	patAxis := make([]string, len(t2Patterns))
	for i, p := range t2Patterns {
		patAxis[i] = p.axis
	}
	spec := sweep.Spec{
		Name:     "T2",
		NoDevice: true,
		Params: []sweep.Axis{
			{Name: "dev", Values: devAxis},
			{Name: "pattern", Values: patAxis},
		},
	}
	measure := func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		var random bool
		var size int
		for _, p := range t2Patterns {
			if p.axis == cell.Str("pattern") {
				random, size = p.random, p.size
			}
		}
		if size == 0 {
			return sweep.Outcome{}, fmt.Errorf("unknown pattern %q", cell.Str("pattern"))
		}

		dev := cell.Str("dev")
		part, _ := c.Spare().(*t2Part)
		if part == nil || part.dev != dev {
			var err error
			if part, err = newT2Part(dev); err != nil {
				return sweep.Outcome{}, err
			}
		}
		s, m := part.sim, part.mem
		// Fixed seed (not the per-cell seed): the access pattern is part
		// of the experiment definition, and must not drift with batch
		// composition.
		rng := sim.NewRand(7)
		const total = 4 << 20 // 4 MB moved per pattern
		n := total / size
		var last sim.Time
		addrSpace := m.Size() / 2 // stay well inside the device
		done := func([]byte) { last = s.Now() }
		for i := 0; i < n; i++ {
			addr := uint64(i*size) % addrSpace
			if random {
				addr = (uint64(rng.Intn(int(addrSpace / 64)))) * 64
			}
			m.Read(addr, size, done)
		}
		s.Drain(0)
		if s.Reset() { // back to the sealed part, for a later cell
			part.reset()
			c.Keep(part)
		}
		var o sweep.Outcome
		o.Set("achieved_gbs", float64(total)/last.Seconds()/1e9)
		o.Set("peak_gbs", part.peakGbps/8)
		return o, nil
	}
	return Def{
		ID:     "T2",
		Title:  "memory subsystem: QDRII+ vs DDR3",
		Groups: []sweep.Group{{Spec: spec, Measure: measure}},
		Render: renderT2,
		Claims: []Claim{
			claim("qdr_random_penalty", func(v float64) bool { return v < 1.05 },
				"QDRII+ SRAM for random-access state", "QDR random access must cost ~1x sequential"),
			claim("ddr_random_penalty", func(v float64) bool { return v > 2.0 },
				"DDR3 for bulk sequential buffering", "DDR3 random access must cost over 2x sequential"),
		},
	}
}

// t2Part is one T2 memory part of kind dev on a simulator of its own,
// sealed as built.
type t2Part struct {
	dev      string
	sim      *sim.Sim
	mem      mem.Memory
	reset    func()
	peakGbps float64
}

// newT2Part builds a part of kind dev on a simulator of its own and
// seals it.
func newT2Part(dev string) (*t2Part, error) {
	p := &t2Part{dev: dev, sim: sim.New()}
	switch dev {
	case "qdr":
		sr := mem.NewSRAM(p.sim, mem.DefaultSUMESRAM("qdr"))
		p.mem, p.reset, p.peakGbps = sr, sr.Reset, sr.PeakBandwidthGbps()
	case "ddr3":
		dr := mem.NewDRAM(p.sim, mem.DefaultSUMEDRAM("ddr"))
		p.mem, p.reset, p.peakGbps = dr, dr.Reset, dr.PeakBandwidthGbps()
	default:
		return nil, fmt.Errorf("unknown memory device %q", dev)
	}
	p.sim.Seal()
	return p, nil
}

func renderT2(rs *sweep.Results) []*Table {
	t := &Table{
		ID:    "T2",
		Title: "memory subsystem bandwidth by access pattern",
		Columns: []string{"device", "pattern", "access", "achieved GB/s",
			"peak GB/s", "of peak"},
	}
	cells := rs.Group(0)
	i := 0
	for _, devName := range t2Devices {
		for _, p := range t2Patterns {
			res := cells[i]
			i++
			achieved, peak := res.V("achieved_gbs"), res.V("peak_gbs")
			t.AddRow(devName.display, p.display, map[bool]string{false: "stream", true: "uniform"}[p.random],
				fmt.Sprintf("%.2f", achieved), fmt.Sprintf("%.2f", peak),
				pct(100*achieved/peak))
			t.Metric(fmt.Sprintf("%s_%s_gbs", devName.display, p.display), achieved)
		}
	}

	// The headline shape: QDR random == QDR sequential; DDR3 random 64B
	// collapses relative to its own sequential rate.
	qs := t.Metrics["QDRII+_sequential 64B_gbs"]
	qr := t.Metrics["QDRII+_random 64B_gbs"]
	ds := t.Metrics["DDR3_sequential 64B_gbs"]
	dr := t.Metrics["DDR3_random 64B_gbs"]
	t.Metric("qdr_random_penalty", qs/qr)
	t.Metric("ddr_random_penalty", ds/dr)
	t.Notes = append(t.Notes,
		fmt.Sprintf("QDRII+ random/sequential penalty %.2fx (flat by design); DDR3 %.2fx (row activation bound)",
			qs/qr, ds/dr),
		"this is why flow tables live in QDR SRAM and packet buffers in DDR3 (paper §2)")
	return []*Table{t}
}
