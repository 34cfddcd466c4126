package pkt

import (
	"bytes"
	"testing"
	"testing/quick"
)

var (
	testSrcMAC = MustMAC("02:00:00:00:00:01")
	testDstMAC = MustMAC("02:00:00:00:00:02")
	testSrcIP  = MustIP4("10.0.0.1")
	testDstIP  = MustIP4("10.0.1.2")
)

func TestEthernetRoundTrip(t *testing.T) {
	e := &Ethernet{Dst: testDstMAC, Src: testSrcMAC, EtherType: EtherTypeIPv4}
	data, err := Serialize(SerializeOptions{}, e, Payload([]byte("hello")))
	if err != nil {
		t.Fatal(err)
	}
	var d Ethernet
	if err := d.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if d.Dst != testDstMAC || d.Src != testSrcMAC || d.EtherType != EtherTypeIPv4 {
		t.Fatalf("decoded %+v", d)
	}
	if string(d.LayerPayload()) != "hello" {
		t.Fatalf("payload %q", d.LayerPayload())
	}
	if d.NextLayerType() != LayerTypeIPv4 {
		t.Fatal("next layer wrong")
	}
}

func TestEthernetTooShort(t *testing.T) {
	var e Ethernet
	if err := e.DecodeFromBytes(make([]byte, 13)); err != ErrTooShort {
		t.Fatalf("err = %v", err)
	}
}

func TestVLANRoundTrip(t *testing.T) {
	v := &VLAN{Priority: 5, DropOK: true, ID: 1234, EtherType: EtherTypeARP}
	data, err := Serialize(SerializeOptions{}, v)
	if err != nil {
		t.Fatal(err)
	}
	var d VLAN
	if err := d.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if d.Priority != 5 || !d.DropOK || d.ID != 1234 || d.EtherType != EtherTypeARP {
		t.Fatalf("decoded %+v", d)
	}
	if d.NextLayerType() != LayerTypeARP {
		t.Fatal("next layer wrong")
	}
}

func TestARPRoundTrip(t *testing.T) {
	frame, err := BuildARPRequest(testSrcMAC, testSrcIP, testDstIP)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.ARP == nil {
		t.Fatal("no ARP layer")
	}
	if p.ARP.Op != ARPRequest || p.ARP.SenderIP != testSrcIP || p.ARP.TargetIP != testDstIP {
		t.Fatalf("decoded %+v", p.ARP)
	}
	if p.Eth.Dst != BroadcastMAC {
		t.Fatal("ARP request not broadcast")
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	ip := &IPv4{TOS: 0x10, ID: 7, Flags: IPv4DontFragment, TTL: 64,
		Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP}
	data, err := Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true},
		ip, Payload(bytes.Repeat([]byte{0xAB}, 30)))
	if err != nil {
		t.Fatal(err)
	}
	var d IPv4
	if err := d.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if !d.VerifyChecksum(data) {
		t.Fatal("checksum invalid")
	}
	if d.Length != 50 || d.TTL != 64 || d.Src != testSrcIP || d.Dst != testDstIP {
		t.Fatalf("decoded %+v", d)
	}
	if d.Flags&IPv4DontFragment == 0 {
		t.Fatal("DF lost")
	}
	// Corrupt a byte: checksum must fail.
	data[9] ^= 0xFF
	if d.VerifyChecksum(data) {
		t.Fatal("checksum passed on corrupted header")
	}
}

func TestIPv4Malformed(t *testing.T) {
	var d IPv4
	if err := d.DecodeFromBytes(make([]byte, 10)); err != ErrTooShort {
		t.Fatalf("short: %v", err)
	}
	bad := make([]byte, 20)
	bad[0] = 0x60 // version 6
	if err := d.DecodeFromBytes(bad); err != ErrVersion {
		t.Fatalf("version: %v", err)
	}
	bad[0] = 0x4F // IHL 60 > len 20
	if err := d.DecodeFromBytes(bad); err != ErrLength {
		t.Fatalf("ihl: %v", err)
	}
	bad[0] = 0x45
	bad[3] = 10 // total length 10 < 20
	if err := d.DecodeFromBytes(bad); err != ErrLength {
		t.Fatalf("len: %v", err)
	}
}

func TestIPv4Fragment(t *testing.T) {
	ip := &IPv4{TTL: 5, Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP,
		FragOffset: 100, Flags: IPv4MoreFragments}
	data, err := Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true},
		ip, Payload(make([]byte, 16)))
	if err != nil {
		t.Fatal(err)
	}
	var d IPv4
	if err := d.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if d.FragOffset != 100 || d.Flags&IPv4MoreFragments == 0 {
		t.Fatalf("fragment fields lost: %+v", d)
	}
	if d.NextLayerType() != LayerTypePayload {
		t.Fatal("non-first fragment should be opaque")
	}
}

// transportChecksumOK reports whether a decoded packet's UDP or TCP
// segment sums to zero over its pseudo-header, as a receiver checks it.
func transportChecksumOK(p *Packet) bool {
	seg := p.IPv4.LayerPayload()
	return Checksum(seg, PseudoHeaderSum(p.IPv4.Protocol, p.IPv4.Src, p.IPv4.Dst, uint16(len(seg)))) == 0
}

func TestUDPRoundTrip(t *testing.T) {
	frame, err := BuildUDP(UDPSpec{
		SrcMAC: testSrcMAC, DstMAC: testDstMAC,
		SrcIP: testSrcIP, DstIP: testDstIP,
		SrcPort: 1000, DstPort: 53, Payload: []byte("query")})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.UDP == nil {
		t.Fatal("no UDP layer")
	}
	if p.UDP.SrcPort != 1000 || p.UDP.DstPort != 53 || string(p.Payload) != "query" {
		t.Fatalf("decoded %+v payload %q", p.UDP, p.Payload)
	}
	if !transportChecksumOK(p) {
		t.Fatal("UDP checksum invalid")
	}
	// Corrupt payload.
	frame[len(frame)-1] ^= 1
	p2, _ := Decode(frame)
	if transportChecksumOK(p2) {
		t.Fatal("UDP checksum passed on corrupted payload")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	ip := &IPv4{TTL: 64, Protocol: IPProtoTCP, Src: testSrcIP, Dst: testDstIP}
	tcp := &TCP{SrcPort: 45000, DstPort: 80, Seq: 0xDEADBEEF, Ack: 42,
		Flags: TCPSyn | TCPAck, Window: 65535}
	tcp.SetNetworkLayerForChecksum(ip)
	frame, err := Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true},
		&Ethernet{Dst: testDstMAC, Src: testSrcMAC, EtherType: EtherTypeIPv4},
		ip, tcp, Payload([]byte("GET /")))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.TCP == nil {
		t.Fatal("no TCP layer")
	}
	if p.TCP.Seq != 0xDEADBEEF || p.TCP.Flags != TCPSyn|TCPAck || string(p.Payload) != "GET /" {
		t.Fatalf("decoded %+v payload %q", p.TCP, p.Payload)
	}
	if !transportChecksumOK(p) {
		t.Fatal("TCP checksum invalid")
	}
}

func TestTCPOptionsRoundTrip(t *testing.T) {
	ip := &IPv4{TTL: 64, Protocol: IPProtoTCP, Src: testSrcIP, Dst: testDstIP}
	tcp := &TCP{SrcPort: 1, DstPort: 2, Flags: TCPSyn, Window: 1000,
		Options: []byte{2, 4, 5, 0xb4}} // MSS 1460
	tcp.SetNetworkLayerForChecksum(ip)
	data, err := Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true},
		&Ethernet{Dst: testDstMAC, Src: testSrcMAC, EtherType: EtherTypeIPv4}, ip, tcp)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.TCP.Options) != 4 || p.TCP.Options[0] != 2 {
		t.Fatalf("options %v", p.TCP.Options)
	}
}

func TestTCPChecksumRequiresNetworkLayer(t *testing.T) {
	tcp := &TCP{SrcPort: 1, DstPort: 2}
	_, err := Serialize(SerializeOptions{ComputeChecksums: true}, tcp)
	if err == nil {
		t.Fatal("expected error without network layer")
	}
}

func TestICMPEchoRoundTrip(t *testing.T) {
	frame, err := BuildICMPEcho(testSrcMAC, testDstMAC, testSrcIP, testDstIP, 7, 3, false, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.ICMP == nil || p.ICMP.Type != ICMPv4EchoRequest || p.ICMP.ID != 7 || p.ICMP.Seq != 3 {
		t.Fatalf("decoded %+v", p.ICMP)
	}
	if Checksum(p.IPv4.LayerPayload(), 0) != 0 {
		t.Fatal("ICMP checksum invalid")
	}
}

func TestVLANTaggedStack(t *testing.T) {
	ip := &IPv4{TTL: 9, Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP}
	udp := &UDP{SrcPort: 5, DstPort: 6}
	udp.SetNetworkLayerForChecksum(ip)
	data, err := Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true},
		&Ethernet{Dst: testDstMAC, Src: testSrcMAC, EtherType: EtherTypeVLAN},
		&VLAN{ID: 42, EtherType: EtherTypeIPv4},
		ip, udp, Payload([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.VLAN == nil || p.VLAN.ID != 42 || p.UDP == nil {
		t.Fatalf("decoded types %v", p.Types)
	}
}

// Property: UDP build→decode round-trips for arbitrary payloads/ports.
func TestUDPRoundTripProperty(t *testing.T) {
	f := func(sport, dport uint16, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		frame, err := BuildUDP(UDPSpec{SrcMAC: testSrcMAC, DstMAC: testDstMAC,
			SrcIP: testSrcIP, DstIP: testDstIP, SrcPort: sport, DstPort: dport, Payload: payload})
		if err != nil {
			return false
		}
		p, err := Decode(frame)
		if err != nil || p.UDP == nil {
			return false
		}
		return p.UDP.SrcPort == sport && p.UDP.DstPort == dport && bytes.Equal(p.Payload, payload) &&
			transportChecksumOK(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary garbage never panics.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Decode(data)
		var parser = NewParser(LayerTypeEthernet, &Ethernet{}, &VLAN{}, &ARP{}, &IPv4{}, &ICMPv4{}, &UDP{}, &TCP{})
		var decoded []LayerType
		_ = parser.Parse(data, &decoded)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPadToMin(t *testing.T) {
	f := PadToMin([]byte{1, 2, 3})
	if len(f) != MinFrameSize {
		t.Fatalf("padded length %d", len(f))
	}
	big := make([]byte, 100)
	if len(PadToMin(big)) != 100 {
		t.Fatal("PadToMin shrank a frame")
	}
}
