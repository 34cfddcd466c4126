// Custom module: the rapid-prototyping workflow the paper demonstrates.
// A researcher writes ONE new piece of logic — an EtherType firewall's
// verdict, a predicate of a few lines — and drops it into the otherwise
// unchanged reference pipeline as a lib.Filter stage, which supplies the
// cut-through datapath, its passed/dropped counters, their register
// block and Reset. The pipeline's stages are an ordered list between the
// input arbiter and the output queues; the stock switch has one, its
// learning lookup (switchp.Project.Stage), and this design lists the
// firewall ahead of it. Nothing else is touched: the MAC adapters,
// arbiter, learning switch logic and output queues are the stock blocks.
// Because both stages offer their decisions, lib.Twin derives the
// design's model as it does a shipped project's.
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

// blockIPv6 is the user's logic: the firewall's verdict on a frame,
// taken from its first beat (true passes it). Its counters — one
// registration inside lib.Filter — are what Design.Stats, the device
// snapshot ("design.user_firewall.passed") and the register block all
// read.
func blockIPv6(f *hw.Frame) bool {
	d := f.Data
	return len(d) < 14 || uint16(d[12])<<8|uint16(d[13]) != 0x86DD
}

func main() {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})

	// The reference switch's pipeline with one more stage: the firewall
	// ahead of the shipped switch's own lookup. Every other block — MAC
	// adapters, arbiter, output queues — is what lib.BuildReference
	// builds for the stock switch.
	firewall := lib.Filter("user_firewall", blockIPv6, hw.Resources{LUTs: 650, FFs: 800}) // <- the one new line of "hardware"
	if _, err := lib.BuildReference(dev, lib.PipelineConfig{
		Stages: []lib.Stage{firewall, switchp.New(switchp.Config{}).Stage()},
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
	// The counters, three ways, from the one registration: the design's
	// stats, the device snapshot, and the host driver's register read.
	snap := dev.Snapshot()
	dropped, err := dev.Driver.ReadCounter64("user_firewall", "dropped")
	if err != nil {
		log.Fatal(err)
	}
	stats := dev.Dsn.Stats()
	fmt.Printf("firewall: passed=%d dropped=%d  snapshot passed=%d  register dropped=%d\n",
		stats["user_firewall.passed"], stats["user_firewall.dropped"],
		snap["design.user_firewall.passed"], dropped)
}
