package repro

// Ablations of three datapath design choices: lookup pipelining,
// output-queue sizing, and clock gating. Each pins the exact counts the
// choice trades on; the runs are deterministic, so a change that moves
// one shows the diff.

import (
	"testing"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/lib"
	"repro/netfpga/pkt"
	"repro/netfpga/projects/switchp"
)

// ablationWindow is how long the lookup ablation measures.
const ablationWindow = 200 * netfpga.Microsecond

// minFramesDelivered assembles a reference switch with a configurable
// lookup pipeline depth, offers minimum-size frames at line rate on all
// four ports and returns the frames delivered in ablationWindow.
func minFramesDelivered(pipelineDepth int) uint64 {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	d := dev.Dsn
	cam := switchp.NewCAM(1024, 0)
	lookup := func(f *hw.Frame) lib.Verdict {
		var eth pkt.Ethernet
		if eth.DecodeFromBytes(f.Data) != nil {
			return lib.Drop
		}
		cam.Learn(eth.Src, f.Meta.SrcPort, 0)
		if port, ok := cam.Lookup(eth.Dst, 0); ok && port != f.Meta.SrcPort {
			f.Meta.DstPorts = hw.PortMask(int(port))
			return lib.Forward
		}
		f.Meta.DstPorts = hw.AllPortsMask(4) &^ hw.PortMask(int(f.Meta.SrcPort))
		return lib.Forward
	}
	var ins []*hw.Stream
	outs := map[int]*hw.Stream{}
	for i, mac := range dev.MACs {
		rx := d.NewStream("rx", 16)
		tx := d.NewStream("tx", 16)
		lib.NewMACAttach(d, mac, i, rx, tx, 0)
		ins = append(ins, rx)
		outs[i] = tx
	}
	merged := d.NewStream("m", 16)
	decided := d.NewStream("d", 16)
	lib.NewInputArbiter(d, ins, merged)
	opl := lib.NewOutputPortLookup(d, "opl", merged, decided, lookup, 6,
		hw.Resources{LUTs: 4100}, nil)
	opl.SetPipelineDepth(pipelineDepth)
	lib.NewOutputQueues(d, decided, outs, 0)

	macs := make([]pkt.MAC, 4)
	taps := make([]*netfpga.PortTap, 4)
	for i := range macs {
		macs[i] = pkt.MAC{2, 0, 0, 0, 0, byte(0x30 + i)}
		taps[i] = dev.Tap(i)
	}
	// Pre-learn.
	for i := range taps {
		learn, _ := pkt.Serialize(pkt.SerializeOptions{},
			&pkt.Ethernet{Dst: macs[i], Src: macs[i], EtherType: 0x88B5})
		taps[i].Send(pkt.PadToMin(learn))
	}
	dev.RunFor(netfpga.Millisecond)
	for _, tap := range taps {
		tap.Received()
		tap.SetCounting(true)
	}
	delivered := func() (n uint64) {
		for _, tap := range taps {
			frames, _ := tap.Counts()
			n += frames
		}
		return n
	}
	streams := make([][]byte, 4)
	for i := range streams {
		f, _ := pkt.Serialize(pkt.SerializeOptions{},
			&pkt.Ethernet{Dst: macs[(i+1)%4], Src: macs[i], EtherType: 0x88B5},
			pkt.Payload(make([]byte, 46)))
		streams[i] = f
	}
	// warmup
	end := dev.Now() + 50*netfpga.Microsecond
	for dev.Now() < end {
		for i, tap := range taps {
			for tap.MAC().TxQueue().Bytes() < 1<<16 {
				if !tap.Send(streams[i]) {
					break
				}
			}
		}
		dev.RunFor(netfpga.Microsecond)
	}
	before := delivered()
	end = dev.Now() + ablationWindow
	for dev.Now() < end {
		for i, tap := range taps {
			for tap.MAC().TxQueue().Bytes() < 1<<16 {
				if !tap.Send(streams[i]) {
					break
				}
			}
		}
		dev.RunFor(netfpga.Microsecond)
	}
	return delivered() - before
}

// TestAblationLookupPipelining compares an unpipelined lookup engine
// (depth 1) with the pipelined default (depth 8) at minimum frame size —
// the choice that decides whether lookup latency costs throughput.
func TestAblationLookupPipelining(t *testing.T) {
	const want1, want8 = 5715, 11905
	depth1, depth8 := minFramesDelivered(1), minFramesDelivered(8)
	if depth1 != want1 || depth8 != want8 {
		t.Errorf("delivered %d frames at depth 1 and %d at depth 8, want %d and %d", depth1, depth8, want1, want8)
	}
	// 4x10G of 60-byte frames, each 84 bytes on the wire.
	lineRate := 4 * ablationWindow.Seconds() * 10e9 / (84 * 8)
	if eff := float64(depth8) / lineRate; eff < 0.99 {
		t.Errorf("pipelined engine below line rate: %.3f", eff)
	}
	if float64(depth1) > 0.9*float64(depth8) {
		t.Errorf("ablation shows no effect: depth 1 delivered %d frames, depth 8 %d", depth1, depth8)
	}
}

// TestAblationOutputQueueSize counts deliveries and drops under 2:1
// overload as the per-port output queue shrinks — the BRAM-vs-loss
// trade in the reference output queues.
func TestAblationOutputQueueSize(t *testing.T) {
	cases := []struct {
		queueBytes         int
		delivered, dropped uint64
	}{
		{6 << 10, 336, 240},
		{24 << 10, 348, 228},
		{96 << 10, 396, 180},
	}
	var prev uint64
	for i, tc := range cases {
		delivered, dropped := overloadCounts(tc.queueBytes)
		if delivered != tc.delivered || dropped != tc.dropped {
			t.Errorf("%d KiB queue: delivered %d and dropped %d frames, want %d and %d",
				tc.queueBytes>>10, delivered, dropped, tc.delivered, tc.dropped)
		}
		// Larger queues must not drop more than smaller ones.
		if i > 0 && dropped > prev {
			t.Errorf("%d KiB queue dropped %d frames, more than %d KiB's %d",
				tc.queueBytes>>10, dropped, cases[i-1].queueBytes>>10, prev)
		}
		prev = dropped
	}
}

// overloadCounts drives 2x10G of 1514B frames into one 10G port through
// output queues of the given size and returns that port's delivered and
// dropped frames.
func overloadCounts(queueBytes int) (delivered, dropped uint64) {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	d := dev.Dsn
	all2 := func(f *hw.Frame) lib.Verdict {
		f.Meta.DstPorts = hw.PortMask(2)
		return lib.Forward
	}
	var ins []*hw.Stream
	outs := map[int]*hw.Stream{}
	for i, mac := range dev.MACs {
		rx := d.NewStream("rx", 16)
		tx := d.NewStream("tx", 16)
		lib.NewMACAttach(d, mac, i, rx, tx, 0)
		ins = append(ins, rx)
		outs[i] = tx
	}
	merged := d.NewStream("m", 16)
	decided := d.NewStream("d", 16)
	lib.NewInputArbiter(d, ins, merged)
	lib.NewOutputPortLookup(d, "opl", merged, decided, all2, 1, hw.Resources{}, nil)
	oq := lib.NewOutputQueues(d, decided, outs, queueBytes)

	taps := []*netfpga.PortTap{dev.Tap(0), dev.Tap(1)}
	dev.Tap(2)
	frame := make([]byte, 1514)
	end := dev.Now() + 300*netfpga.Microsecond
	for dev.Now() < end {
		for _, tap := range taps {
			for tap.MAC().TxQueue().Bytes() < 1<<16 {
				if !tap.Send(frame) {
					break
				}
			}
		}
		dev.RunFor(netfpga.Microsecond)
	}
	dev.RunFor(netfpga.Millisecond)
	st := oq.Counters().Map()
	return st["port2_pkts"], st["port2_drops"]
}

// TestClockGatingIdleAdvance checks that advancing an idle device
// through simulated time is free with gateable clocks: after a settle,
// no event runs however much time passes.
func TestClockGatingIdleAdvance(t *testing.T) {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	if err := switchp.New(switchp.Config{}).Build(dev); err != nil {
		t.Fatal(err)
	}
	dev.RunFor(netfpga.Millisecond) // settle
	for _, d := range []netfpga.Time{netfpga.Millisecond, netfpga.Second, 10 * netfpga.Second} {
		before, at := dev.Sim.Executed(), dev.Now()
		dev.RunFor(d)
		if n := dev.Sim.Executed() - before; n != 0 || dev.Now() != at+d {
			t.Errorf("idle RunFor(%v) executed %d events and reached %v, want 0 and %v", d, n, dev.Now(), at+d)
		}
	}
}
