package projects

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/pkt"
	"repro/netfpga/projects/blueswitch"
	"repro/netfpga/projects/iotest"
	"repro/netfpga/projects/nic"
	"repro/netfpga/projects/router"
	"repro/netfpga/projects/switchp"
	"repro/netfpga/workload"
)

// twinGap spaces the generated frames: longer than a 1514-byte frame
// takes on the slowest board's 1 Gb/s ports, plus a slow-path answer,
// so no frame queues behind another and each port's order is the
// vectors' order.
const twinGap = 20 * netfpga.Microsecond

// twinFrames is how many frames one design receives on one board.
const twinFrames = 48

// TwinTest is a design's generated unified test: how to build the
// design, how to configure each instance, and the traffic that exercises
// it — IMIX sizes, many flows, broadcast and multicast, host queues.
// FuzzTwin and nf-test run the same ones.
type TwinTest struct {
	Name      string
	New       func() netfpga.Project
	Configure func(p netfpga.Project, dev *netfpga.Device) error
	Traffic   func(rng *rand.Rand, ports int) []netfpga.TestVector
}

// Run drives the traffic drawn from seed through the design on board,
// against the sim and the twin. Each port must receive the twin's
// frames, byte for byte and in order, and the sim must count no queue
// drop (RunUnified checks that too).
func (d TwinTest) Run(board netfpga.BoardSpec, seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, uint64(len(d.Name))))
	newDev := func() *netfpga.Device { return netfpga.NewDevice(board, netfpga.Options{Seed: seed}) }
	simOut, twinOut, err := netfpga.RunUnified(d.New, newDev, netfpga.TestCase{
		Name: d.Name + "@" + board.Name, Vectors: d.Traffic(rng, board.Ports),
		Settle: 200 * netfpga.Microsecond, Configure: d.Configure,
	})
	if err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	for port, want := range twinOut {
		got := simOut[port]
		for i := range want {
			if i >= len(got) || !bytes.Equal(got[i], want[i]) {
				return fmt.Errorf("seed %d %s@%s port %d: frame %d of %d differs from the twin's", seed, d.Name, board.Name, port, i, len(want))
			}
		}
	}
	return nil
}

// TwinTests returns the generated test of every shipped design with a
// twin: all but osnt, whose generator and monitor offer no decision.
func TwinTests() []TwinTest {
	return []TwinTest{
		{Name: "reference_nic", New: func() netfpga.Project { return nic.New() },
			Traffic: func(rng *rand.Rand, ports int) []netfpga.TestVector { return l2Traffic(rng, ports, true, nil) }},
		{Name: "reference_iotest", New: func() netfpga.Project { return iotest.New() },
			Traffic: func(rng *rand.Rand, ports int) []netfpga.TestVector { return l2Traffic(rng, ports, true, nil) }},
		{Name: "reference_switch", New: func() netfpga.Project { return switchp.New(switchp.Config{}) },
			Traffic: func(rng *rand.Rand, ports int) []netfpga.TestVector { return l2Traffic(rng, ports, false, nil) }},
		{Name: "blueswitch", New: func() netfpga.Project { return blueswitch.New(blueswitch.Config{Mode: blueswitch.Versioned}) },
			Configure: func(p netfpga.Project, dev *netfpga.Device) error {
				// IPv4 to one port, IPv6 to every port, ARP dropped.
				all := hw.AllPortsMask(dev.Board.Ports)
				return p.(*blueswitch.Project).InstallInitial(blueswitch.Policy{
					{Rules: []blueswitch.Rule{
						{Key: 0x0800, Action: blueswitch.Action{SetTag: 1, HasTag: true}},
						{Key: 0x86DD, Action: blueswitch.Action{SetTag: 2, HasTag: true}},
					}},
					{Rules: []blueswitch.Rule{
						{Key: 1, Action: blueswitch.Action{Output: hw.PortMask(dev.Board.Ports - 1), HasOutput: true}},
						{Key: 2, Action: blueswitch.Action{Output: all, HasOutput: true}},
					}},
				})
			},
			Traffic: func(rng *rand.Rand, ports int) []netfpga.TestVector {
				return l2Traffic(rng, ports, false, []uint16{0x0800, 0x0800, 0x86DD, 0x0806})
			}},
		{Name: "reference_router", New: func() netfpga.Project { return router.New(router.Config{}) },
			Configure: func(p netfpga.Project, dev *netfpga.Device) error {
				r := p.(*router.Project)
				for j := 0; j < dev.Board.Ports; j++ {
					r.AddRoute(router.Route{Prefix: pkt.Prefix{Addr: pkt.IP4{10, 0, byte(j), 0}, Bits: 24}, Port: uint8(j)})
					for h := 0; h < routerHosts; h++ {
						r.AddARP(routerHost(j, h))
					}
				}
				return nil
			},
			Traffic: routerTraffic},
	}
}

// l2Traffic is IMIX frames over 64 flows between eight stations, each
// at home on a port but sometimes moving; one in six is a broadcast.
// ethTypes, when set, overrides the EtherType per frame. withHost mixes
// in frames from the host's DMA queues.
func l2Traffic(rng *rand.Rand, ports int, withHost bool, ethTypes []uint16) []netfpga.TestVector {
	gen, err := workload.New(workload.Config{Seed: rng.Uint64(), Flows: 64})
	if err != nil {
		panic(err)
	}
	station := func(s int) pkt.MAC { return pkt.MAC{2, 0, 0, 0, 0x5a, byte(s)} }
	var vs []netfpga.TestVector
	for i := 0; i < twinFrames; i++ {
		data := gen.Next()
		src, dst := rng.IntN(8), rng.IntN(8)
		port := src % ports
		if rng.IntN(8) == 0 {
			port = rng.IntN(ports) // the station moved
		}
		d := station(dst)
		if rng.IntN(6) == 0 {
			d = pkt.BroadcastMAC
		}
		s := station(src)
		copy(data[0:6], d[:])
		copy(data[6:12], s[:])
		if ethTypes != nil {
			et := ethTypes[rng.IntN(len(ethTypes))]
			data[12], data[13] = byte(et>>8), byte(et)
		}
		if withHost && rng.IntN(4) == 0 {
			port = netfpga.HostPort(rng.IntN(ports))
		}
		vs = append(vs, netfpga.TestVector{Port: port, Data: data, At: netfpga.Time(i+1) * twinGap})
	}
	return vs
}

// routerHosts is how many hosts with seeded ARP entries sit behind each
// router port.
const routerHosts = 8

// routerHost is host h behind port j: 10.0.j.(10+h).
func routerHost(j, h int) (pkt.IP4, pkt.MAC) {
	return pkt.IP4{10, 0, byte(j), byte(10 + h)}, pkt.MAC{2, 0xbb, 0, 0, byte(j), byte(10 + h)}
}

// routerTraffic is IMIX-sized UDP flows between hosts behind the
// router's interfaces, addressed to the ingress interface's MAC, mixed
// with TTL-1 frames (ICMP time exceeded), pings of the ingress
// interface (echo replies) and frames from the host.
func routerTraffic(rng *rand.Rand, ports int) []netfpga.TestVector {
	ifs := router.DefaultInterfaces(ports)
	imix := workload.IMIX()
	var vs []netfpga.TestVector
	for i := 0; i < twinFrames; i++ {
		in, out := rng.IntN(ports), rng.IntN(ports)
		srcIP, srcMAC := routerHost(in, rng.IntN(routerHosts))
		dstIP, _ := routerHost(out, rng.IntN(routerHosts))
		size := imix[0].Bytes
		if w := rng.IntN(12); w >= 11 {
			size = imix[2].Bytes
		} else if w >= 7 {
			size = imix[1].Bytes
		}
		spec := pkt.UDPSpec{SrcMAC: srcMAC, DstMAC: ifs[in].MAC, SrcIP: srcIP, DstIP: dstIP,
			SrcPort: uint16(rng.IntN(1 << 16)), DstPort: uint16(rng.IntN(1 << 16)),
			Payload: make([]byte, max(size-42, 0))}
		port := in
		var data []byte
		var err error
		switch rng.IntN(8) {
		case 0:
			spec.TTL = 1
			data, err = pkt.BuildUDP(spec)
		case 1:
			data, err = pkt.BuildICMPEcho(srcMAC, ifs[in].MAC, srcIP, ifs[in].IP, uint16(i), 1, false, nil)
		case 2:
			port = netfpga.HostPort(in)
			data, err = pkt.BuildUDP(spec)
		default:
			data, err = pkt.BuildUDP(spec)
		}
		if err != nil {
			panic(err)
		}
		vs = append(vs, netfpga.TestVector{Port: port, Data: pkt.PadToMin(data), At: netfpga.Time(i+1) * twinGap})
	}
	return vs
}
