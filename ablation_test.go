package repro

// Ablation benchmarks for three datapath design choices: lookup
// pipelining, output-queue sizing, and clock gating. Each reports the
// metric the choice trades on.

import (
	"testing"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/lib"
	"repro/netfpga/pkt"
	"repro/netfpga/projects/switchp"
)

// ablationSwitch assembles a reference switch with a configurable
// lookup pipeline depth and returns the achieved min-frame goodput as a
// fraction of the 4x10G wire limit.
func minFrameEfficiency(b *testing.B, pipelineDepth int) float64 {
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
	}
	streams := make([][]byte, 4)
	for i := range streams {
		f, _ := pkt.Serialize(pkt.SerializeOptions{},
			&pkt.Ethernet{Dst: macs[(i+1)%4], Src: macs[i], EtherType: 0x88B5},
			pkt.Payload(make([]byte, 46)))
		streams[i] = f
	}
	const window = 200 * netfpga.Microsecond
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
	for _, tap := range taps {
		tap.Received()
	}
	end = dev.Now() + window
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
	var rxBytes uint64
	for _, tap := range taps {
		for _, f := range tap.Received() {
			rxBytes += uint64(len(f.Data))
		}
	}
	goodput := float64(rxBytes) * 8 / window.Seconds() / 1e9
	wireLimit := 40.0 * 60 / 84
	return goodput / wireLimit
}

// BenchmarkAblationLookupPipelining compares an unpipelined lookup
// engine (depth 1) with the pipelined default (depth 8) at minimum
// frame size — the choice that decides whether lookup latency costs
// throughput.
func BenchmarkAblationLookupPipelining(b *testing.B) {
	var eff1, eff8 float64
	for i := 0; i < b.N; i++ {
		eff1 = minFrameEfficiency(b, 1)
		eff8 = minFrameEfficiency(b, 8)
	}
	b.ReportMetric(100*eff1, "depth1_%wire")
	b.ReportMetric(100*eff8, "depth8_%wire")
	if eff8 < 0.99 {
		b.Fatalf("pipelined engine below line rate: %.2f", eff8)
	}
	if eff1 > 0.9*eff8 {
		b.Fatalf("ablation shows no effect: depth1 %.2f vs depth8 %.2f", eff1, eff8)
	}
}

// BenchmarkAblationOutputQueueSize measures drop rate under 2:1
// overload as the per-port output queue shrinks — the BRAM-vs-loss
// trade in the reference output queues.
func BenchmarkAblationOutputQueueSize(b *testing.B) {
	results := map[int]float64{}
	for _, qb := range []int{6 << 10, 24 << 10, 96 << 10} {
		var dropFrac float64
		for i := 0; i < b.N; i++ {
			dropFrac = overloadDropFraction(b, qb)
		}
		results[qb] = dropFrac
		b.ReportMetric(100*dropFrac, "drops%_"+itoa(qb>>10)+"KB")
	}
	// Larger queues must not drop more than smaller ones.
	if results[96<<10] > results[6<<10] {
		b.Fatal("queue-size ablation inverted")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// overloadDropFraction drives 2x10G of 1514B frames into one 10G port
// through output queues of the given size and returns the dropped
// fraction.
func overloadDropFraction(b *testing.B, queueBytes int) float64 {
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
	delivered := st["port2_pkts"]
	dropped := st["port2_drops"]
	if delivered+dropped == 0 {
		b.Fatal("no traffic")
	}
	return float64(dropped) / float64(delivered+dropped)
}

// BenchmarkClockGatingIdleAdvance measures the cost of advancing an
// idle device through simulated time: with gateable clocks this is a
// no-op regardless of how much time passes.
func BenchmarkClockGatingIdleAdvance(b *testing.B) {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	p := switchp.New(switchp.Config{})
	if err := p.Build(dev); err != nil {
		b.Fatal(err)
	}
	dev.RunFor(netfpga.Millisecond) // settle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.RunFor(netfpga.Second) // one full second of idle simulated time
	}
}
