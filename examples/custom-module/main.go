// Custom module: the rapid-prototyping workflow the paper demonstrates.
// A researcher writes ONE new module — an EtherType firewall, ~60 lines —
// and drops it into the otherwise unchanged reference pipeline. The
// pipeline's stages are an ordered list between the input arbiter and
// the output queues; the stock switch has one, its learning lookup
// (switchp.Project.Stage), and this design lists the firewall ahead of
// it. Nothing else is touched: the MAC adapters, arbiter, learning
// switch logic and output queues are the stock blocks.
package main

import (
	"fmt"
	"log"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/lib"
	"repro/netfpga/pkt"
	"repro/netfpga/projects/switchp"
)

// firewall is the user's module: it passes beats through, dropping any
// frame whose EtherType is on the block list. It is cut-through: the
// decision needs only the first beat.
type firewall struct {
	in, out *hw.Stream
	blocked map[uint16]bool

	dropping bool // inside a dropped frame
	passed   uint64
	dropped  uint64
	ctrs     hw.Counters
}

// newFirewall builds the module and registers its counters — once, here.
// That one list is all the telemetry code a contributed module writes:
// Design.Stats, the device snapshot ("design.user_firewall.passed"), a
// sweep's queue-drop sum (for counters of kind hw.QueueDrop; a policy
// drop like this one is a plain count) and the register block below are
// all views of it.
func newFirewall(in, out *hw.Stream, blocked map[uint16]bool) *firewall {
	f := &firewall{in: in, out: out, blocked: blocked}
	f.ctrs.Add("passed", &f.passed)
	f.ctrs.Add("dropped", &f.dropped)
	return f
}

// Counters implements hw.CounterSource.
func (f *firewall) Counters() *hw.Counters { return &f.ctrs }

// Registers maps the same counters for the host driver: passed_lo/_hi
// at 0x0, dropped_lo/_hi at 0x8.
func (f *firewall) Registers() *hw.RegisterFile {
	rf := hw.NewRegisterFile("user_firewall")
	rf.AddCounters(0x0, f.ctrs.List()...)
	return rf
}

// Name implements hw.Module.
func (f *firewall) Name() string { return "user_firewall" }

// Resources implements hw.Module: a small comparator bank.
func (f *firewall) Resources() hw.Resources {
	return hw.Resources{LUTs: 650, FFs: 800}
}

// Reset implements hw.Resetter — the one method that lets a sweep
// program a device once and soft-reset it between cells instead of
// rebuilding it: it returns the module to the state newFirewall left it
// in. The block list is configuration, set at construction, and stays;
// the streams are the design's to empty. A design with a module that
// lacks Reset is simply rebuilt for every cell.
func (f *firewall) Reset() { f.dropping, f.passed, f.dropped = false, 0, 0 }

// Tick implements hw.Module: one beat per cycle, like every pipeline
// stage.
func (f *firewall) Tick() bool {
	if !f.in.CanPop() {
		return false
	}
	if !f.out.CanPush() && !f.dropping {
		return true
	}
	b := f.in.Pop()
	if b.First() {
		data := b.Frame.Data
		et := uint16(0)
		if len(data) >= 14 {
			et = uint16(data[12])<<8 | uint16(data[13])
		}
		f.dropping = f.blocked[et]
		if f.dropping {
			f.dropped++
		} else {
			f.passed++
		}
	}
	if !f.dropping {
		f.out.Push(b)
	}
	if b.Last {
		f.dropping = false
	}
	return true
}

func main() {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})

	// The reference switch's pipeline with one more stage: the firewall
	// ahead of the shipped switch's own lookup. Every other block — MAC
	// adapters, arbiter, output queues — is what lib.BuildReference
	// builds for the stock switch.
	var fw *firewall
	insertFirewall := func(p *lib.Pipeline, in, out *hw.Stream) {
		fw = newFirewall(in, out, map[uint16]bool{0x86DD: true}) // block IPv6
		p.Dev.Dsn.AddModule(fw)                                  // <- the one new line of "hardware"
		p.Dev.MountRegs(fw.Registers())
	}
	if _, err := lib.BuildReference(dev, lib.PipelineConfig{
		Stages: []lib.Stage{insertFirewall, switchp.New(switchp.Config{}).Stage()},
	}); err != nil {
		log.Fatal(err)
	}

	rep, err := dev.Dsn.Synthesize(dev.Board.FPGA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pipeline with user firewall inserted:")
	fmt.Println(rep)

	// Traffic: one IPv4 frame (passes, floods) and one IPv6 frame
	// (dropped by the firewall).
	for i := 0; i < 4; i++ {
		dev.Tap(i)
	}
	mk := func(ethType uint16) []byte {
		frame, _ := pkt.Serialize(pkt.SerializeOptions{},
			&pkt.Ethernet{Dst: pkt.MustMAC("02:00:00:00:00:99"),
				Src: pkt.MustMAC("02:00:00:00:00:01"), EtherType: ethType},
			pkt.Payload(make([]byte, 46)))
		return frame
	}
	dev.Tap(0).Send(mk(0x0800))
	dev.Tap(0).Send(mk(0x86DD))
	dev.RunFor(netfpga.Millisecond)

	delivered := 0
	for i := 1; i < 4; i++ {
		delivered += len(dev.Tap(i).Received())
	}
	fmt.Printf("IPv4 copies delivered: %d (flooded to 3 ports)\n", delivered)
	// The counters, three ways, from the one registration: the module's
	// own map, the device snapshot, and the host driver's register read.
	snap := dev.Snapshot()
	dropped, err := dev.Driver.ReadCounter64("user_firewall", "dropped")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("firewall: %v  snapshot passed=%d  register dropped=%d\n",
		fw.ctrs.Map(), snap["design.user_firewall.passed"], dropped)
}
