package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pcie"
	"repro/internal/serial"
	"repro/netfpga"
	"repro/netfpga/sweep"
)

// t3Gens aligns the T3 PCIe-generation axis with display names and link
// parameters.
var t3Gens = []struct {
	axis    string
	display string
	gen     pcie.Gen
}{
	{"gen3", "Gen3 x8", pcie.Gen3},
	{"gen2", "Gen2 x8", pcie.Gen2},
}

var t3Frames = []string{"64", "256", "512", "1024", "1518", "4096", "9000"}

// t3GenAxis derives the axis values from t3Gens so the spec and the
// renderer's table can never drift apart.
func t3GenAxis() []string {
	out := make([]string, len(t3Gens))
	for i, g := range t3Gens {
		out[i] = g.axis
	}
	return out
}

// defT3 measures reference-NIC host I/O: host->wire throughput across
// frame sizes on PCIe Gen3 x8 versus Gen2 x8. The shape to reproduce:
// small frames are per-descriptor limited, large frames approach the
// link's effective data rate, Gen3 ~2x Gen2. Each (generation, frame
// size) cell is one fleet device on a derived board — SUME with the
// cell's PCIe link and 100G ports so the wire never bottlenecks the
// measurement.
func defT3() Def {
	spec := sweep.Spec{
		Name: "T3",
		Params: []sweep.Axis{
			{Name: "pcie", Values: t3GenAxis()},
			{Name: "frame", Values: t3Frames},
		},
		Projects: []string{"reference_nic"},
		BoardFor: func(cell sweep.Cell) (netfpga.BoardSpec, error) {
			board := core.SUME()
			for _, g := range t3Gens {
				if g.axis == cell.Str("pcie") {
					board.PCIe = pcie.LinkConfig{Gen: g.gen, Lanes: 8}
					return withFatPorts(board), nil
				}
			}
			return netfpga.BoardSpec{}, fmt.Errorf("unknown PCIe generation %q", cell.Str("pcie"))
		},
	}
	const window = 300 * netfpga.Microsecond
	measure := func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		dev := c.Dev
		fs := cell.Int("frame")
		tap := dev.Tap(0)
		tap.SetCounting(true)
		data := make([]byte, fs)
		send := func() {
			for dev.Driver.Send(data, 0) == nil {
			}
		}
		c.Drive(dev.Now()+50*netfpga.Microsecond, 2*netfpga.Microsecond, send) // warmup
		f0, b0 := tap.Counts()
		c.Drive(dev.Now()+window, 2*netfpga.Microsecond, send)
		f1, b1 := tap.Counts() // read exactly at window end
		var o sweep.Outcome
		o.Set("achieved_gbps", float64(b1-b0)*8/window.Seconds()/1e9)
		o.Set("mpps", float64(f1-f0)/window.Seconds()/1e6)
		return o, nil
	}
	return Def{
		ID:     "T3",
		Title:  "host DMA throughput (reference NIC)",
		Groups: []sweep.Group{{Spec: spec, Measure: measure}},
		Render: renderT3,
		Claims: []Claim{
			claim("gen3_vs_gen2", func(v float64) bool { return v > 1.8 && v < 2.2 },
				"PCIe Gen3 x8 host interface", "Gen3 x8 must carry ~2x Gen2 x8 at 1518B"),
		},
	}
}

func renderT3(rs *sweep.Results) []*Table {
	t := &Table{
		ID:    "T3",
		Title: "reference NIC host transmit throughput (single queue)",
		Columns: []string{"PCIe", "frame", "achieved Gb/s", "link effective",
			"of link", "Mpps"},
	}
	cells := rs.Group(0)
	i := 0
	for _, g := range t3Gens {
		for _, fstr := range t3Frames {
			res := cells[i]
			i++
			fs := res.Cell.Int("frame")
			eff := 5.0 * 0.8 * 8 // Gen2 x8 effective Gb/s
			if g.gen == pcie.Gen3 {
				eff = 8.0 * 128 / 130 * 8
			}
			achieved := res.V("achieved_gbps")
			t.AddRow(g.display, fstr+"B", gbps(achieved), gbps(eff),
				pct(100*achieved/eff), fmt.Sprintf("%.2f", res.V("mpps")))
			if fs == 1518 {
				t.Metric(fmt.Sprintf("%s_1518_gbps", g.display), achieved)
			}
			if fs == 64 {
				t.Metric(fmt.Sprintf("%s_64_mpps", g.display), res.V("mpps"))
			}
		}
	}
	g3 := t.Metrics["Gen3 x8_1518_gbps"]
	g2 := t.Metrics["Gen2 x8_1518_gbps"]
	t.Metric("gen3_vs_gen2", g3/g2)
	t.Notes = append(t.Notes,
		fmt.Sprintf("Gen3/Gen2 large-frame ratio %.2fx (expect ~2x)", g3/g2),
		"small frames are bounded by per-TLP and per-descriptor overhead, large frames by link rate")
	return []*Table{t}
}

// withFatPorts rebuilds the board with 100G ports so the wire never
// bottlenecks a PCIe measurement.
func withFatPorts(b core.BoardSpec) core.BoardSpec {
	inner := b.PortConfig
	b.PortConfig = func(i int) serial.Config {
		c := inner(i)
		c.Lanes = 10
		return c
	}
	b.BusBytes = 64
	return b
}
