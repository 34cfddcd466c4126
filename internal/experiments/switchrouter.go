package experiments

import (
	"fmt"

	"repro/netfpga"
	"repro/netfpga/pkt"
	"repro/netfpga/projects/router"
	"repro/netfpga/sweep"
)

var t4Frames = []string{"64", "256", "512", "1024", "1518"}

// defT4 measures the reference switch at 4x10G full mesh across frame
// sizes: aggregate goodput against line rate, queue drops, and
// port-to-port store-and-forward latency percentiles. Each frame size
// spawns two fleet devices — a saturated full-mesh goodput cell and a
// latency-probe cell driven by the built-in percentile measure (64
// paced probes queueing behind background flood traffic, so p50/p95/
// p99 reflect a real distribution) — expressed as two sweep groups
// over the same frame axis.
func defT4() Def {
	frameAxis := []sweep.Axis{{Name: "frame", Values: t4Frames}}
	meshSpec := sweep.Spec{
		Name:     "T4/mesh",
		Projects: []string{"reference_switch"},
		Params:   frameAxis,
	}
	latSpec := sweep.Spec{
		Name:     "T4/latency",
		Projects: []string{"reference_switch"},
		Params: append(frameAxis[:1:1],
			sweep.Axis{Name: "bg", Values: []string{"6"}}),
	}
	const window = 400 * netfpga.Microsecond

	macs := make([]pkt.MAC, 4)
	for i := range macs {
		macs[i] = pkt.MAC{2, 0, 0, 0, 0, byte(0x20 + i)}
	}

	mesh := func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		dev := c.Dev
		payload := cell.Int("frame") - 4
		taps := countingTaps(dev, 4)
		// Pre-learn every station so the mesh is unicast.
		for i := range taps {
			learn, _ := pkt.Serialize(pkt.SerializeOptions{},
				&pkt.Ethernet{Dst: macs[i], Src: macs[i], EtherType: 0x88B5})
			taps[i].Send(pkt.PadToMin(learn))
		}
		dev.RunFor(netfpga.Millisecond)

		// Full mesh: port i sends to station on port (i+1)%4 at line
		// rate.
		streams := make([][]byte, 4)
		for i := range streams {
			f, _ := pkt.Serialize(pkt.SerializeOptions{},
				&pkt.Ethernet{Dst: macs[(i+1)%4], Src: macs[i], EtherType: 0x88B5},
				pkt.Payload(make([]byte, payload-14)))
			streams[i] = f
		}
		rxBytes := measureGoodput(dev, taps, streams, 100*netfpga.Microsecond, window)
		var o sweep.Outcome
		o.Set("achieved_gbps", float64(rxBytes)*8/window.Seconds()/1e9)
		o.Set("drops", float64(designDrops(dev)))
		return o, nil
	}

	return Def{
		ID:    "T4",
		Title: "reference switch line rate and latency",
		Groups: []sweep.Group{
			{Spec: meshSpec, Measure: mesh},
			// Latency probes ride the built-in percentile measure: 64
			// paced frames tap0 -> tap1, with bg=6 flood frames per gap
			// from the other ports contending for the egress queue.
			{Spec: latSpec, Measure: sweep.LatencyMeasure},
		},
		Render: renderT4,
		Claims: []Claim{
			claim("achieved_64B_gbps", func(v float64) bool { return v > 28.0 },
				"reference switch at 4x10G line rate", "64B frames must reach ~28.6 Gb/s goodput"),
			claim("achieved_1518B_gbps", func(v float64) bool { return v > 39.0 },
				"reference switch at 4x10G line rate", "1518B frames must reach ~39.4 Gb/s goodput"),
		},
	}
}

func renderT4(rs *sweep.Results) []*Table {
	t := &Table{
		ID:    "T4",
		Title: "reference switch, 4x10G full mesh",
		Columns: []string{"frame", "offered Gb/s", "achieved Gb/s",
			"of line rate", "drops", "latency p50", "p95", "p99"},
	}
	meshCells, latCells := rs.Group(0), rs.Group(1)
	for i, fstr := range t4Frames {
		mesh, latRes := meshCells[i], latCells[i]
		fs := mesh.Cell.Int("frame")
		payload := fs - 4
		achieved := mesh.V("achieved_gbps")
		p50 := latRes.T("latency_p50_ps")
		p95 := latRes.T("latency_p95_ps")
		p99 := latRes.T("latency_p99_ps")
		lineGood := 40.0 * float64(payload) / float64(payload+24)
		t.AddRow(fstr+"B", gbps(40), gbps(achieved),
			pct(100*achieved/lineGood), fmt.Sprintf("%d", mesh.U("drops")),
			p50.String(), p95.String(), p99.String())
		if fs == 64 || fs == 1518 {
			t.Metric(fmt.Sprintf("achieved_%dB_gbps", fs), achieved)
			t.Metric(fmt.Sprintf("latency_%dB_ns", fs), float64(p50)/1e3)
			t.Metric(fmt.Sprintf("latency_p99_%dB_ns", fs), float64(p99)/1e3)
		}
	}
	t.Notes = append(t.Notes,
		"latency percentiles are per-probe tap-to-tap times (64 paced probes queueing behind background flood traffic; store-and-forward, so the floor grows with frame size)")
	return []*Table{t}
}

var (
	t5FIBs   = []string{"16", "1024", "65536"}
	t5Frames = []string{"64", "1518"}
)

// defT5 measures the reference router: line rate across frame sizes and
// its independence from FIB size (the LPM trie walks at most 32 nodes
// regardless). Each (FIB size, frame size) cell is one fleet device
// carrying its own FIB.
func defT5() Def {
	spec := sweep.Spec{
		Name: "T5",
		Params: []sweep.Axis{
			{Name: "fib", Values: t5FIBs},
			{Name: "frame", Values: t5Frames},
		},
	}
	const window = 300 * netfpga.Microsecond
	ifs := router.DefaultInterfaces(4)
	hostMAC := func(i int) pkt.MAC { return pkt.MAC{2, 0xCC, 0, 0, 0, byte(i)} }
	hostIP := func(i int) pkt.IP4 { return pkt.IP4{10, 0, byte(i), 2} }

	measure := func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		dev := c.Dev
		fib, payload := cell.Int("fib"), cell.Int("frame")-4
		p := router.New(router.Config{})
		if err := p.Build(dev); err != nil {
			return sweep.Outcome{}, err
		}
		taps := make([]*netfpga.PortTap, 4)
		for i := range taps {
			taps[i] = dev.Tap(i)
			p.AddRoute(router.Route{
				Prefix: pkt.Prefix{Addr: pkt.IP4{10, 0, byte(i), 0}, Bits: 24},
				Port:   uint8(i),
			})
			p.AddARP(hostIP(i), hostMAC(i))
		}
		// Pad the FIB with distinct prefixes under 172.16/12.
		for i := 0; p.Engine().FIB.Len() < fib; i++ {
			p.AddRoute(router.Route{
				Prefix: pkt.Prefix{Addr: pkt.IP4{172, 16 + byte(i>>16), byte(i >> 8), byte(i)}, Bits: 32},
				Port:   uint8(i % 4),
			})
		}
		streams := make([][]byte, 4)
		for i := range streams {
			f, err := pkt.BuildUDP(pkt.UDPSpec{
				SrcMAC: hostMAC(i), DstMAC: ifs[i].MAC,
				SrcIP: hostIP(i), DstIP: hostIP((i + 1) % 4),
				SrcPort: 7000, DstPort: 7001,
				Payload: make([]byte, payload-42),
			})
			if err != nil {
				return sweep.Outcome{}, err
			}
			streams[i] = f
		}
		rxBytes := measureGoodput(dev, taps, streams, 100*netfpga.Microsecond, window)
		cnt := p.Engine().C
		var o sweep.Outcome
		o.Set("achieved_gbps", float64(rxBytes)*8/window.Seconds()/1e9)
		o.Set("forwarded", float64(cnt.Forwarded))
		o.Set("punts", float64(cnt.ARPMiss+cnt.NoRoute+cnt.TTLExpired+cnt.LocalDelivery))
		return o, nil
	}
	return Def{
		ID:     "T5",
		Title:  "reference router line rate vs FIB size",
		Groups: []sweep.Group{{Spec: spec, Measure: measure}},
		Render: renderT5,
		Claims: []Claim{
			claim("fib65536_64B_gbps", func(v float64) bool { return v > 28.0 },
				"reference router at 4x10G line rate", "a 64k-entry FIB must hold 64B line rate"),
		},
	}
}

func renderT5(rs *sweep.Results) []*Table {
	t := &Table{
		ID:    "T5",
		Title: "reference router, 4x10G routed mesh",
		Columns: []string{"FIB size", "frame", "achieved Gb/s", "of line rate",
			"fwd pkts", "slow-path punts"},
	}
	cells := rs.Group(0)
	i := 0
	for _, fib := range t5FIBs {
		for _, fstr := range t5Frames {
			res := cells[i]
			i++
			payload := res.Cell.Int("frame") - 4
			achieved := res.V("achieved_gbps")
			lineGood := 40.0 * float64(payload) / float64(payload+24)
			t.AddRow(fib, fstr+"B",
				gbps(achieved), pct(100*achieved/lineGood),
				fmt.Sprintf("%d", res.U("forwarded")),
				fmt.Sprintf("%d", res.U("punts")))
			t.Metric(fmt.Sprintf("fib%s_%sB_gbps", fib, fstr), achieved)
		}
	}
	t.Notes = append(t.Notes,
		"throughput is flat in FIB size: LPM cost is bounded by address width, not table size")
	return []*Table{t}
}
