package router

import (
	"bytes"
	"testing"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/pkt"
)

// Test topology: two LAN hosts behind the router.
//
//	hostX 10.0.0.2 (port 0) ── [10.0.0.1 router 10.0.1.1] ── hostY 10.0.1.2 (port 1)
var (
	hostXMAC = pkt.MustMAC("02:aa:00:00:00:01")
	hostYMAC = pkt.MustMAC("02:bb:00:00:00:01")
	hostXIP  = pkt.MustIP4("10.0.0.2")
	hostYIP  = pkt.MustIP4("10.0.1.2")
)

func newDev() *netfpga.Device {
	return netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
}

// build constructs a router with connected routes for its 4 ports.
func build(t *testing.T) (*netfpga.Device, *Project) {
	t.Helper()
	dev := newDev()
	p := New(Config{})
	if err := p.Build(dev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dev.Board.Ports; i++ {
		dev.Tap(i)
		p.AddRoute(Route{
			Prefix: pkt.Prefix{Addr: pkt.IP4{10, 0, byte(i), 0}, Bits: 24},
			Port:   uint8(i),
		})
	}
	return dev, p
}

// seedARP fills both hosts into the ARP table so fast-path tests skip
// resolution.
func seedARP(p *Project) {
	p.AddARP(hostXIP, hostXMAC)
	p.AddARP(hostYIP, hostYMAC)
}

// udpXtoY builds a UDP packet from host X to host Y addressed to the
// router's port-0 MAC.
func udpXtoY(t *testing.T, ttl uint8, payload []byte) []byte {
	t.Helper()
	frame, err := pkt.BuildUDP(pkt.UDPSpec{
		SrcMAC: hostXMAC, DstMAC: DefaultInterfaces(4)[0].MAC,
		SrcIP: hostXIP, DstIP: hostYIP,
		SrcPort: 5000, DstPort: 5001, TTL: ttl, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkt.PadToMin(frame)
}

func TestFastPathForwarding(t *testing.T) {
	dev, p := build(t)
	seedARP(p)
	dev.Tap(0).Send(udpXtoY(t, 64, []byte("hello-router")))
	dev.RunFor(netfpga.Millisecond)
	rx := dev.Tap(1).Received()
	if len(rx) != 1 {
		t.Fatalf("port 1 got %d frames", len(rx))
	}
	out, err := pkt.Decode(rx[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Eth.Dst != hostYMAC {
		t.Fatalf("dst MAC %v, want %v", out.Eth.Dst, hostYMAC)
	}
	if out.Eth.Src != DefaultInterfaces(4)[1].MAC {
		t.Fatalf("src MAC not rewritten: %v", out.Eth.Src)
	}
	if out.IPv4.TTL != 63 {
		t.Fatalf("TTL = %d, want 63", out.IPv4.TTL)
	}
	if !out.IPv4.VerifyChecksum(out.Eth.LayerPayload()) {
		t.Fatal("checksum invalid after incremental update")
	}
	if !bytes.Contains(rx[0].Data, []byte("hello-router")) {
		t.Fatal("payload lost")
	}
	if p.Engine().C.Forwarded != 1 {
		t.Fatalf("forwarded counter = %d", p.Engine().C.Forwarded)
	}
}

func TestARPResolutionEndToEnd(t *testing.T) {
	dev, p := build(t)
	p.AddARP(hostXIP, hostXMAC) // source known; destination must be ARPed
	tapY := dev.Tap(1)

	// Host Y: answer ARP requests for its IP, capture everything else.
	var arpSeen int
	var delivered [][]byte
	tapY.OnRx = func(f *hw.Frame, _ netfpga.Time) {
		d, err := pkt.Decode(f.Data)
		if err != nil {
			return
		}
		if d.ARP != nil && d.ARP.Op == pkt.ARPRequest && d.ARP.TargetIP == hostYIP {
			arpSeen++
			reply, _ := pkt.BuildARPReply(hostYMAC, hostYIP, d.ARP.SenderHW, d.ARP.SenderIP)
			tapY.Send(pkt.PadToMin(reply))
			return
		}
		delivered = append(delivered, f.Data)
	}

	dev.Tap(0).Send(udpXtoY(t, 64, []byte("needs-arp")))
	dev.RunFor(5 * netfpga.Millisecond)

	if arpSeen != 1 {
		t.Fatalf("host Y saw %d ARP requests, want 1", arpSeen)
	}
	if len(delivered) != 1 {
		t.Fatalf("host Y got %d data frames after resolution", len(delivered))
	}
	out, _ := pkt.Decode(delivered[0])
	if out.Eth.Dst != hostYMAC || out.IPv4 == nil || out.IPv4.TTL != 63 {
		t.Fatal("flushed packet not properly forwarded")
	}
	if _, ok := p.Engine().ARP.Get(hostYIP); !ok {
		t.Fatal("router did not learn Y's ARP entry")
	}
}

func TestTTLExpiredGeneratesICMP(t *testing.T) {
	dev, p := build(t)
	seedARP(p)
	dev.Tap(0).Send(udpXtoY(t, 1, []byte("dying")))
	dev.RunFor(2 * netfpga.Millisecond)
	rx := dev.Tap(0).Received()
	if len(rx) != 1 {
		t.Fatalf("source got %d frames, want 1 ICMP", len(rx))
	}
	out, err := pkt.Decode(rx[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if out.ICMP == nil || out.ICMP.Type != pkt.ICMPv4TimeExceeded {
		t.Fatalf("expected time-exceeded, got %+v", out.ICMP)
	}
	if out.IPv4.Dst != hostXIP {
		t.Fatal("ICMP not addressed to the offender")
	}
	if dev.Tap(1).Pending() != 0 {
		t.Fatal("expired packet was forwarded anyway")
	}
}

func TestNoRouteGeneratesUnreachable(t *testing.T) {
	dev, p := build(t)
	seedARP(p)
	frame, _ := pkt.BuildUDP(pkt.UDPSpec{
		SrcMAC: hostXMAC, DstMAC: DefaultInterfaces(4)[0].MAC,
		SrcIP: hostXIP, DstIP: pkt.MustIP4("203.0.113.9"),
		SrcPort: 1, DstPort: 2,
	})
	dev.Tap(0).Send(pkt.PadToMin(frame))
	dev.RunFor(2 * netfpga.Millisecond)
	rx := dev.Tap(0).Received()
	if len(rx) != 1 {
		t.Fatalf("source got %d frames", len(rx))
	}
	out, _ := pkt.Decode(rx[0].Data)
	if out.ICMP == nil || out.ICMP.Type != pkt.ICMPv4DestUnreachable {
		t.Fatalf("expected unreachable, got %+v", out.ICMP)
	}
}

func TestPingRouterInterface(t *testing.T) {
	dev, p := build(t)
	seedARP(p)
	echo, _ := pkt.BuildICMPEcho(hostXMAC, DefaultInterfaces(4)[0].MAC,
		hostXIP, DefaultInterfaces(4)[0].IP, 42, 7, false, []byte("ping!"))
	dev.Tap(0).Send(pkt.PadToMin(echo))
	dev.RunFor(2 * netfpga.Millisecond)
	rx := dev.Tap(0).Received()
	if len(rx) != 1 {
		t.Fatalf("got %d replies", len(rx))
	}
	out, _ := pkt.Decode(rx[0].Data)
	if out.ICMP == nil || out.ICMP.Type != pkt.ICMPv4EchoReply {
		t.Fatalf("expected echo reply, got %+v", out.ICMP)
	}
	if out.ICMP.ID != 42 || out.ICMP.Seq != 7 {
		t.Fatal("echo id/seq not preserved")
	}
	if !bytes.Contains(rx[0].Data, []byte("ping!")) {
		t.Fatal("echo payload not preserved")
	}
}

func TestBadChecksumDropped(t *testing.T) {
	dev, p := build(t)
	seedARP(p)
	frame := udpXtoY(t, 64, []byte("corrupt-me"))
	frame[pkt.EthernetHeaderSize+10] ^= 0xFF // break the IP checksum
	dev.Tap(0).Send(frame)
	dev.RunFor(netfpga.Millisecond)
	if dev.Tap(1).Pending() != 0 {
		t.Fatal("bad-checksum packet forwarded")
	}
	if p.Engine().C.BadChecksum != 1 {
		t.Fatalf("bad_checksum = %d", p.Engine().C.BadChecksum)
	}
}

func TestWrongDstMACDropped(t *testing.T) {
	dev, p := build(t)
	seedARP(p)
	frame, _ := pkt.BuildUDP(pkt.UDPSpec{
		SrcMAC: hostXMAC, DstMAC: pkt.MustMAC("02:ff:ff:ff:ff:ff"),
		SrcIP: hostXIP, DstIP: hostYIP, SrcPort: 1, DstPort: 2,
	})
	dev.Tap(0).Send(pkt.PadToMin(frame))
	dev.RunFor(netfpga.Millisecond)
	if dev.Tap(1).Pending() != 0 {
		t.Fatal("frame for another L2 destination was routed")
	}
	if p.Engine().C.BadMAC != 1 {
		t.Fatalf("bad_mac = %d", p.Engine().C.BadMAC)
	}
}

func TestRegisterTableProgramming(t *testing.T) {
	dev, p := build(t)
	seedARP(p)
	// Program 198.51.100.0/24 -> port 1 via the register interface, as
	// router-management software would.
	drv := dev.Driver
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(drv.RegWriteName("router", "route_prefix", pkt.MustIP4("198.51.100.0").Uint32()))
	must(drv.RegWriteName("router", "route_mask_bits", 24))
	must(drv.RegWriteName("router", "route_nexthop", hostYIP.Uint32()))
	must(drv.RegWriteName("router", "route_port", 1))
	must(drv.RegWriteName("router", "route_commit", 1))

	size, err := drv.RegReadName("router", "fib_size")
	if err != nil || size != 5 { // 4 connected + 1 programmed
		t.Fatalf("fib_size = %d, err %v", size, err)
	}
	frame, _ := pkt.BuildUDP(pkt.UDPSpec{
		SrcMAC: hostXMAC, DstMAC: DefaultInterfaces(4)[0].MAC,
		SrcIP: hostXIP, DstIP: pkt.MustIP4("198.51.100.7"),
		SrcPort: 9, DstPort: 10,
	})
	dev.Tap(0).Send(pkt.PadToMin(frame))
	dev.RunFor(netfpga.Millisecond)
	if dev.Tap(1).Pending() != 1 {
		t.Fatal("programmed route not used")
	}
	// Delete the route; traffic must now bounce.
	must(drv.RegWriteName("router", "route_commit", 0))
	if size, _ := drv.RegReadName("router", "fib_size"); size != 4 {
		t.Fatalf("fib_size after delete = %d", size)
	}
}

func TestUnifiedSimVsBehavioral(t *testing.T) {
	configure := func(proj netfpga.Project, _ *netfpga.Device) error {
		p := proj.(*Project)
		for i := 0; i < 4; i++ {
			p.AddRoute(Route{Prefix: pkt.Prefix{Addr: pkt.IP4{10, 0, byte(i), 0}, Bits: 24}, Port: uint8(i)})
		}
		seedARP(p)
		return nil
	}
	fwd := udpXtoY(t, 64, []byte("equiv"))
	ttl1 := udpXtoY(t, 1, []byte("expire"))
	echo, _ := pkt.BuildICMPEcho(hostXMAC, DefaultInterfaces(4)[0].MAC,
		hostXIP, DefaultInterfaces(4)[0].IP, 1, 1, false, nil)
	vectors := []netfpga.TestVector{
		{Port: 0, Data: fwd},
		{Port: 0, Data: ttl1, At: 300 * netfpga.Microsecond},
		{Port: 0, Data: pkt.PadToMin(echo), At: 600 * netfpga.Microsecond},
	}
	if _, _, err := netfpga.RunUnified(func() netfpga.Project { return New(Config{}) }, newDev, netfpga.TestCase{
		Name: "router_paths", Vectors: vectors, Configure: configure,
	}); err != nil {
		t.Fatal(err)
	}
}
