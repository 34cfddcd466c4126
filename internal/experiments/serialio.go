package experiments

import (
	"fmt"

	"repro/netfpga"
	"repro/netfpga/sweep"
)

// t1Boards aligns the T1 board axis with its display labels and line
// rates (board axis order == render order).
var t1Boards = []struct {
	board string
	label string
	gbps  float64
}{
	{"sume", "4x10G", 40},
	{"sume-40g", "2x40G", 80},
	{"sume-100g", "1x100G", 100},
}

var t1Frames = []string{"64", "256", "512", "1024", "1518"}

// defT1 validates the headline I/O claim: the platform sustains line
// rate from 4x10G through 2x40G to 1x100G, across frame sizes. The
// iotest loopback design echoes saturating tap traffic; achieved
// goodput is measured at the taps against the theoretical wire limit.
// Every (board, frame size) cell is one independent fleet device.
func defT1() Def {
	// The board axis derives from t1Boards so the spec and the
	// renderer's nested iteration can never drift apart.
	boardAxis := make([]string, len(t1Boards))
	for i, b := range t1Boards {
		boardAxis[i] = b.board
	}
	spec := sweep.Spec{
		Name:     "T1",
		Boards:   boardAxis,
		Projects: []string{"reference_iotest"},
		Params: []sweep.Axis{
			{Name: "frame", Values: t1Frames},
		},
	}
	const window = 400 * netfpga.Microsecond
	measure := func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		dev := c.Dev
		payload := cell.Int("frame") - 4 // wire frame minus FCS is what taps carry
		taps := countingTaps(dev, dev.Board.Ports)
		// Saturate every port through a warmup, then measure a clean
		// window.
		data := make([]byte, payload)
		streams := make([][]byte, len(taps))
		for i := range streams {
			streams[i] = data
		}
		rxBytes := measureGoodput(c, taps, streams, 100*netfpga.Microsecond, window)
		var o sweep.Outcome
		o.Set("achieved_gbps", float64(rxBytes)*8/window.Seconds()/1e9)
		o.Set("loss", float64(sweep.QueueDrops(dev)))
		return o, nil
	}
	return Def{
		ID:     "T1",
		Title:  "serial I/O bandwidth up to 100G",
		Groups: []sweep.Group{{Spec: spec, Measure: measure}},
		Render: renderT1,
		Claims: []Claim{
			claim("4x10G_achieved_gbps", func(v float64) bool { return v > 39.0 },
				"4x10G at line rate, ~39.4 Gb/s goodput at MTU", "four 10G ports must lose nothing at MTU"),
			claim("2x40G_achieved_gbps", func(v float64) bool { return v > 78.0 },
				"2x40G at line rate, ~78.8 Gb/s goodput at MTU", "bonded 40G ports must lose nothing at MTU"),
			claim("1x100G_achieved_gbps", func(v float64) bool { return v > 97.0 },
				"1x100G at line rate, ~98.4 Gb/s goodput at MTU", "the 512-bit datapath must carry 100G at MTU"),
		},
	}
}

func renderT1(rs *sweep.Results) []*Table {
	t := &Table{
		ID:    "T1",
		Title: "aggregate goodput vs line rate, loopback through the datapath",
		Columns: []string{"port config", "frame", "line rate", "wire limit",
			"achieved", "efficiency", "loss"},
	}
	cells := rs.Group(0)
	i := 0
	for _, b := range t1Boards {
		for _, fstr := range t1Frames {
			res := cells[i]
			i++
			fs := res.Cell.Int("frame")
			payload := fs - 4
			// Wire limit: payload efficiency x line rate.
			eff := float64(payload) / float64(payload+24)
			wireLimit := b.gbps * eff
			achieved := res.V("achieved_gbps")
			t.AddRow(b.label, fstr+"B", gbps(b.gbps), gbps(wireLimit),
				gbps(achieved), pct(100*achieved/wireLimit), fmt.Sprintf("%d", res.U("loss")))
			if fs == 1518 {
				t.Metric(fmt.Sprintf("%s_achieved_gbps", b.label), achieved)
			}
		}
	}
	t.Notes = append(t.Notes,
		"wire limit = line rate x payload/(payload+preamble+FCS+IFG); efficiency vs that limit",
		"100G config uses the 512-bit datapath, as real >40G NetFPGA designs do")
	return []*Table{t}
}
