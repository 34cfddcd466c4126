package projects

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/lib"
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

// twinDesign is one forwarding design under FuzzTwin: how to build it,
// how to configure each instance, and its generated traffic.
type twinDesign struct {
	name      string
	new       func() netfpga.Project
	configure func(p netfpga.Project, dev *netfpga.Device) error
	traffic   func(rng *rand.Rand, ports int) []netfpga.TestVector
}

// FuzzTwin drives generated traffic — IMIX sizes, many flows, broadcast
// and multicast — through every forwarding design on every board it
// builds on, against the sim and the twin. Each port must receive the
// twin's frames, byte for byte and in order, and the sim must count no
// queue drop (RunUnified checks that too).
func FuzzTwin(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		for _, d := range twinDesigns() {
			for _, board := range netfpga.Boards() {
				rng := rand.New(rand.NewPCG(seed, uint64(len(d.name))))
				vectors := d.traffic(rng, board.Ports)
				newDev := func() *netfpga.Device { return netfpga.NewDevice(board, netfpga.Options{Seed: seed}) }
				if err := d.new().Build(newDev()); err != nil {
					continue // the design does not build on this board
				}
				simOut, twinOut, err := netfpga.RunUnified(d.new, newDev, netfpga.TestCase{
					Name: d.name + "@" + board.Name, Vectors: vectors,
					Settle: 200 * netfpga.Microsecond, Configure: d.configure,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for port, want := range twinOut {
					got := simOut[port]
					for i := range want {
						if i >= len(got) || !bytes.Equal(got[i], want[i]) {
							t.Fatalf("seed %d %s@%s port %d: frame %d of %d differs from the twin's", seed, d.name, board.Name, port, i, len(want))
						}
					}
				}
			}
		}
	})
}

// TestOSNTIsSimOnly: a design with stage modules that offer no decision
// has no twin, and the unified run says so.
func TestOSNTIsSimOnly(t *testing.T) {
	osnt, _ := ByName("osnt")
	_, _, err := netfpga.RunUnified(osnt.New, func() *netfpga.Device {
		return netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	}, netfpga.TestCase{Name: "osnt"})
	if err == nil || !strings.Contains(err.Error(), "sim-only") {
		t.Fatalf("err = %v, want sim-only", err)
	}
}

func twinDesigns() []twinDesign {
	return []twinDesign{
		{name: "reference_nic", new: func() netfpga.Project { return nic.New() },
			traffic: func(rng *rand.Rand, ports int) []netfpga.TestVector { return l2Traffic(rng, ports, true, nil) }},
		{name: "reference_iotest", new: func() netfpga.Project { return iotest.New() },
			traffic: func(rng *rand.Rand, ports int) []netfpga.TestVector { return l2Traffic(rng, ports, true, nil) }},
		{name: "reference_switch", new: func() netfpga.Project { return switchp.New(switchp.Config{}) },
			traffic: func(rng *rand.Rand, ports int) []netfpga.TestVector { return l2Traffic(rng, ports, false, nil) }},
		{name: "firewalled_switch", new: func() netfpga.Project { return firewalledSwitch{switchp.New(switchp.Config{})} },
			traffic: func(rng *rand.Rand, ports int) []netfpga.TestVector {
				return l2Traffic(rng, ports, false, []uint16{0x0800, 0x0800, 0x86DD})
			}},
		{name: "blueswitch", new: func() netfpga.Project { return blueswitch.New(blueswitch.Config{Mode: blueswitch.Versioned}) },
			configure: func(p netfpga.Project, dev *netfpga.Device) error {
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
			traffic: func(rng *rand.Rand, ports int) []netfpga.TestVector {
				return l2Traffic(rng, ports, false, []uint16{0x0800, 0x0800, 0x86DD, 0x0806})
			}},
		{name: "reference_router", new: func() netfpga.Project { return router.New(router.Config{}) },
			configure: func(p netfpga.Project, dev *netfpga.Device) error {
				r := p.(*router.Project)
				for j := 0; j < dev.Board.Ports; j++ {
					r.AddRoute(router.Route{Prefix: pkt.Prefix{Addr: pkt.IP4{10, 0, byte(j), 0}, Bits: 24}, Port: uint8(j)})
					for h := 0; h < routerHosts; h++ {
						r.AddARP(routerHost(j, h))
					}
				}
				return nil
			},
			traffic: routerTraffic},
	}
}

// firewalledSwitch is the reference switch behind a user firewall that
// blocks IPv6, as F2 and examples/custom-module build it.
type firewalledSwitch struct{ sw *switchp.Project }

func (firewalledSwitch) Name() string        { return "firewalled_switch" }
func (firewalledSwitch) Description() string { return "" }
func (p firewalledSwitch) Build(dev *netfpga.Device) error {
	notIPv6 := func(f *hw.Frame) bool {
		return len(f.Data) < 14 || uint16(f.Data[12])<<8|uint16(f.Data[13]) != 0x86DD
	}
	_, err := lib.BuildReference(dev, lib.PipelineConfig{Stages: []lib.Stage{
		lib.Filter("user_firewall", notIPv6, hw.Resources{LUTs: 650, FFs: 800}), p.sw.Stage()}})
	return err
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
