package pkt

import (
	"testing"
)

func TestParserZeroAllocPath(t *testing.T) {
	frame, err := BuildUDP(UDPSpec{SrcMAC: testSrcMAC, DstMAC: testDstMAC,
		SrcIP: testSrcIP, DstIP: testDstIP, SrcPort: 7, DstPort: 8, Payload: []byte("data")})
	if err != nil {
		t.Fatal(err)
	}
	var (
		eth Ethernet
		ip  IPv4
		udp UDP
	)
	p := NewParser(LayerTypeEthernet, &eth, &ip, &udp)
	decoded := make([]LayerType, 0, 4)

	allocs := testing.AllocsPerRun(100, func() {
		if err := p.Parse(frame, &decoded); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Parse allocates %v per run, want 0", allocs)
	}
	if len(decoded) != 3 || decoded[2] != LayerTypeUDP {
		t.Fatalf("decoded %v", decoded)
	}
	if udp.SrcPort != 7 || ip.Dst != testDstIP || eth.Src != testSrcMAC {
		t.Fatal("layer fields wrong")
	}
}

func TestParserUnsupportedLayer(t *testing.T) {
	frame, _ := BuildUDP(UDPSpec{SrcMAC: testSrcMAC, DstMAC: testDstMAC,
		SrcIP: testSrcIP, DstIP: testDstIP, SrcPort: 7, DstPort: 8})
	var eth Ethernet
	p := NewParser(LayerTypeEthernet, &eth) // no IPv4 decoder
	var decoded []LayerType
	err := p.Parse(frame, &decoded)
	ule, ok := err.(UnsupportedLayerError)
	if !ok || ule.Type != LayerTypeIPv4 {
		t.Fatalf("err = %v", err)
	}
	if len(decoded) != 1 || decoded[0] != LayerTypeEthernet {
		t.Fatalf("decoded %v", decoded)
	}
}

func TestParserTruncated(t *testing.T) {
	frame, _ := BuildUDP(UDPSpec{SrcMAC: testSrcMAC, DstMAC: testDstMAC,
		SrcIP: testSrcIP, DstIP: testDstIP, SrcPort: 7, DstPort: 8, Payload: []byte("xx")})
	var eth Ethernet
	var ip IPv4
	p := NewParser(LayerTypeEthernet, &eth, &ip)
	var decoded []LayerType
	if err := p.Parse(frame[:20], &decoded); err != ErrTooShort {
		t.Fatalf("err = %v", err)
	}
	if !p.Truncated {
		t.Fatal("Truncated not set")
	}
}

func TestParserARPBranch(t *testing.T) {
	frame, _ := BuildARPRequest(testSrcMAC, testSrcIP, testDstIP)
	var (
		eth Ethernet
		arp ARP
		ip  IPv4
	)
	p := NewParser(LayerTypeEthernet, &eth, &arp, &ip)
	var decoded []LayerType
	if err := p.Parse(frame, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 || decoded[1] != LayerTypeARP {
		t.Fatalf("decoded %v", decoded)
	}
	if arp.Op != ARPRequest {
		t.Fatal("ARP fields wrong")
	}
}

func TestDecodePartialStacks(t *testing.T) {
	// Ethernet with unknown EtherType: payload only.
	data, _ := Serialize(SerializeOptions{},
		&Ethernet{Dst: testDstMAC, Src: testSrcMAC, EtherType: 0x88B5},
		Payload([]byte("raw")))
	p, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.IPv4 != nil || p.ARP != nil || string(p.Payload) != "raw" {
		t.Fatalf("decoded %+v", p)
	}
	// Ethernet claiming IPv4 but with garbage: Decode degrades gracefully.
	data2, _ := Serialize(SerializeOptions{},
		&Ethernet{Dst: testDstMAC, Src: testSrcMAC, EtherType: EtherTypeIPv4},
		Payload([]byte{0xFF, 0x00}))
	p2, err := Decode(data2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.IPv4 != nil {
		t.Fatal("malformed IPv4 should not decode")
	}
}

func TestSerializeBufferGrowth(t *testing.T) {
	b := NewSerializeBuffer()
	// Prepend more than the headroom to force a grow.
	big := b.PrependBytes(4096)
	for i := range big {
		big[i] = byte(i)
	}
	if b.Len() != 4096 {
		t.Fatalf("len = %d", b.Len())
	}
	b.PrependBytes(10)
	if b.Len() != 4106 {
		t.Fatalf("len after second prepend = %d", b.Len())
	}
	// The original content must have been preserved.
	out := b.Bytes()
	if out[10] != 0 || out[11] != 1 || out[4105] != byte(4095&0xFF) {
		t.Fatal("content corrupted by growth")
	}
	b.Clear()
	if b.Len() != 0 {
		t.Fatal("clear failed")
	}
	// Clear keeps the grown headroom: the same packet again is free.
	if n := testing.AllocsPerRun(10, func() { b.Clear(); b.PrependBytes(4106) }); n != 0 {
		t.Fatalf("re-serializing after Clear allocates %.0f per packet, want 0", n)
	}
}
