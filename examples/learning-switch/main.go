// Learning switch: four simulated hosts hang off the reference switch;
// the example shows flooding before learning, unicast after, and the CAM
// filling up — the canonical NetFPGA teaching lab.
package main

import (
	"fmt"
	"log"

	"repro/netfpga"
	"repro/netfpga/pkt"
	"repro/netfpga/projects/switchp"
)

// station is one simulated end host.
type station struct {
	name string
	mac  pkt.MAC
	tap  *netfpga.PortTap
}

func main() {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	proj := switchp.New(switchp.Config{TableSize: 1024})
	if err := proj.Build(dev); err != nil {
		log.Fatal(err)
	}

	stations := make([]*station, 4)
	for i := range stations {
		stations[i] = &station{
			name: fmt.Sprintf("host%c", 'A'+i),
			mac:  pkt.MAC{0x02, 0, 0, 0, 0, byte(0x10 + i)},
			tap:  dev.Tap(i),
		}
	}

	send := func(from, to *station, note string) {
		frame, err := pkt.Serialize(pkt.SerializeOptions{},
			&pkt.Ethernet{Dst: to.mac, Src: from.mac, EtherType: 0x88B5},
			pkt.Payload([]byte(note)))
		if err != nil {
			log.Fatal(err)
		}
		from.tap.Send(pkt.PadToMin(frame))
		dev.RunFor(netfpga.Millisecond)
		fmt.Printf("%s -> %s (%s):", from.name, to.name, note)
		for _, st := range stations {
			if n := len(st.tap.Received()); n > 0 {
				fmt.Printf("  delivered at %s", st.name)
			}
		}
		fmt.Printf("  [CAM %d entries]\n", proj.CAMTable().Len())
	}

	fmt.Println("== first packet: destination unknown, switch floods ==")
	send(stations[0], stations[1], "flooded")

	fmt.Println("\n== reply: source A is now learned, unicast ==")
	send(stations[1], stations[0], "unicast-to-A")

	fmt.Println("\n== forward again: both ends learned ==")
	send(stations[0], stations[1], "unicast-to-B")

	fmt.Println("\n== broadcast always floods ==")
	bcast, _ := pkt.Serialize(pkt.SerializeOptions{},
		&pkt.Ethernet{Dst: pkt.BroadcastMAC, Src: stations[2].mac, EtherType: 0x88B5},
		pkt.Payload([]byte("who-is-out-there")))
	stations[2].tap.Send(pkt.PadToMin(bcast))
	dev.RunFor(netfpga.Millisecond)
	for _, st := range stations {
		if st.tap.Pending() > 0 {
			st.tap.Received()
			fmt.Printf("  broadcast delivered at %s\n", st.name)
		}
	}

	fmt.Println("\n== hardware view (registers) ==")
	floods, _ := dev.Driver.ReadCounter64("switch", "floods")
	entries, _ := dev.Driver.RegReadName("switch", "cam_entries")
	fmt.Printf("floods=%d cam_entries=%d\n", floods, entries)
	for _, c := range proj.CAMTable().Counters().List() {
		fmt.Printf("cam.%s = %d\n", c.Name, c.Value())
	}
}
