package pkt

// Convenience builders for tests, examples and workload generators. Each
// returns a complete Ethernet frame (without FCS) with lengths and
// checksums computed.

var buildOpts = SerializeOptions{FixLengths: true, ComputeChecksums: true}

// UDPSpec describes a UDP packet to build.
type UDPSpec struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     IP4
	SrcPort, DstPort uint16
	TTL              uint8 // 0 means 64
	TOS              uint8
	Payload          []byte
}

// BuildUDP assembles an Ethernet/IPv4/UDP frame.
func BuildUDP(s UDPSpec) ([]byte, error) {
	ttl := s.TTL
	if ttl == 0 {
		ttl = 64
	}
	ip := &IPv4{TTL: ttl, TOS: s.TOS, Protocol: IPProtoUDP, Src: s.SrcIP, Dst: s.DstIP}
	udp := &UDP{SrcPort: s.SrcPort, DstPort: s.DstPort}
	udp.SetNetworkLayerForChecksum(ip)
	return Serialize(buildOpts,
		&Ethernet{Dst: s.DstMAC, Src: s.SrcMAC, EtherType: EtherTypeIPv4},
		ip, udp, Payload(s.Payload))
}

// BuildARPRequest assembles a who-has request for targetIP.
func BuildARPRequest(srcMAC MAC, srcIP, targetIP IP4) ([]byte, error) {
	return Serialize(buildOpts,
		&Ethernet{Dst: BroadcastMAC, Src: srcMAC, EtherType: EtherTypeARP},
		&ARP{Op: ARPRequest, SenderHW: srcMAC, SenderIP: srcIP, TargetIP: targetIP})
}

// BuildARPReply assembles an is-at reply to the given requester.
func BuildARPReply(srcMAC MAC, srcIP IP4, dstMAC MAC, dstIP IP4) ([]byte, error) {
	return Serialize(buildOpts,
		&Ethernet{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeARP},
		&ARP{Op: ARPReply, SenderHW: srcMAC, SenderIP: srcIP, TargetHW: dstMAC, TargetIP: dstIP})
}

// BuildICMPEcho assembles an ICMP echo request (or reply if reply is set).
func BuildICMPEcho(srcMAC, dstMAC MAC, srcIP, dstIP IP4, id, seq uint16, reply bool, payload []byte) ([]byte, error) {
	typ := ICMPv4EchoRequest
	if reply {
		typ = ICMPv4EchoReply
	}
	return Serialize(buildOpts,
		&Ethernet{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: IPProtoICMP, Src: srcIP, Dst: dstIP},
		&ICMPv4{Type: typ, ID: id, Seq: seq},
		Payload(payload))
}

// PadToMin pads a frame with zeros to the Ethernet minimum (60 bytes
// before FCS) and returns it.
func PadToMin(frame []byte) []byte {
	for len(frame) < MinFrameSize {
		frame = append(frame, 0)
	}
	return frame
}
