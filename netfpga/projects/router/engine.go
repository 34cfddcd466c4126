package router

import (
	"encoding/binary"

	"repro/netfpga"
	"repro/netfpga/lib"
	"repro/netfpga/pkt"
)

// IfConfig is one router interface (one per port).
type IfConfig struct {
	MAC pkt.MAC
	IP  pkt.IP4
}

// FwdResult is the fast-path verdict.
type FwdResult int

// Fast-path verdicts.
const (
	// FwdForward: the frame was rewritten in place; send to FwdPort.
	FwdForward FwdResult = iota
	// FwdToCPU: punt to the slow path untouched.
	FwdToCPU
	// FwdDrop: discard.
	FwdDrop
)

// Counters mirror the reference router's per-reason statistics.
type Counters struct {
	Forwarded     uint64
	NonIP         uint64
	BadChecksum   uint64
	BadMAC        uint64
	TTLExpired    uint64
	LocalDelivery uint64
	NoRoute       uint64
	ARPMiss       uint64
	ARPPunt       uint64
	ICMPSent      uint64
	ARPSent       uint64
	PendingDrops  uint64
}

// Engine holds the router's tables and implements both the fast path
// (the hardware output-port-lookup logic) and the slow path (the
// software agent logic). The sim and its twin run this one engine code;
// the unified tests therefore compare the surrounding pipeline
// mechanics, which is exactly what differs between "simulation" and
// "hardware" targets on the physical platform.
type Engine struct {
	Ifs []IfConfig
	FIB *Trie
	// ARP is the next-hop resolution table, an open-addressing arena
	// (lib.FlowTable) so large deployments resolve in O(1) with no
	// per-lookup allocation. Seed static entries with Put.
	ARP *lib.FlowTable[pkt.IP4, pkt.MAC]
	C   Counters

	// arpSeen records when each ARP entry was learned/refreshed, for
	// aging; entries added directly to ARP (static seeds) never age.
	arpSeen *lib.FlowTable[pkt.IP4, int64]
	// nowFn timestamps dynamic learns; nil disables aging.
	nowFn func() int64

	// pending parks packets awaiting ARP resolution, per next hop.
	pending    *lib.FlowTable[pkt.IP4, [][]byte]
	pendingCap int
}

// AgeARP expires dynamic ARP entries idle since before cutoff and
// returns how many were removed — the agent's periodic cache
// maintenance, matching the reference router's software behaviour.
func (e *Engine) AgeARP(cutoff int64) int {
	var expired []pkt.IP4
	e.arpSeen.Range(func(ip pkt.IP4, seen int64) bool {
		if seen < cutoff {
			expired = append(expired, ip)
		}
		return true
	})
	for _, ip := range expired {
		e.ARP.Delete(ip)
		e.arpSeen.Delete(ip)
	}
	return len(expired)
}

// NewEngine builds an engine for the given interfaces.
func NewEngine(ifs []IfConfig) *Engine {
	return &Engine{
		Ifs:        ifs,
		FIB:        NewTrie(),
		ARP:        lib.NewFlowTable[pkt.IP4, pkt.MAC](lib.HashIP4, 256),
		arpSeen:    lib.NewFlowTable[pkt.IP4, int64](lib.HashIP4, 256),
		pending:    lib.NewFlowTable[pkt.IP4, [][]byte](lib.HashIP4, 16),
		pendingCap: 16,
	}
}

// Reset empties every table and zeroes the counters, keeping the
// interfaces and the clock.
func (e *Engine) Reset() {
	e.FIB.Clear()
	e.ARP.Clear()
	e.arpSeen.Clear()
	e.pending.Clear()
	e.C = Counters{}
}

// SetClock installs the time source used to timestamp dynamic ARP
// learns for aging. The project installs the device clock when ARP
// entries age.
func (e *Engine) SetClock(now func() int64) { e.nowFn = now }

// localIP reports whether ip is one of the router's interface addresses.
func (e *Engine) localIP(ip pkt.IP4) bool {
	for _, c := range e.Ifs {
		if c.IP == ip {
			return true
		}
	}
	return false
}

// Forward is the fast path. On FwdForward the frame bytes have been
// rewritten in place (MACs, TTL, checksum) and port is the egress
// interface. On any other verdict data is unmodified.
func (e *Engine) Forward(data []byte, ingress uint8) (FwdResult, uint8) {
	var eth pkt.Ethernet
	if eth.DecodeFromBytes(data) != nil {
		e.C.NonIP++
		return FwdDrop, 0
	}
	if eth.EtherType == pkt.EtherTypeARP {
		return FwdToCPU, 0
	}
	if eth.EtherType != pkt.EtherTypeIPv4 {
		e.C.NonIP++
		return FwdDrop, 0
	}
	// A router only forwards frames addressed to it at L2.
	if int(ingress) < len(e.Ifs) && eth.Dst != e.Ifs[ingress].MAC && !eth.Dst.IsBroadcast() {
		e.C.BadMAC++
		return FwdDrop, 0
	}
	ipBytes := eth.LayerPayload()
	var ip pkt.IPv4
	if ip.DecodeFromBytes(ipBytes) != nil {
		e.C.NonIP++
		return FwdDrop, 0
	}
	if !ip.VerifyChecksum(ipBytes) {
		e.C.BadChecksum++
		return FwdDrop, 0
	}
	if e.localIP(ip.Dst) || ip.Dst.IsBroadcast() || ip.Dst.IsMulticast() {
		e.C.LocalDelivery++
		return FwdToCPU, 0
	}
	if ip.TTL <= 1 {
		e.C.TTLExpired++
		return FwdToCPU, 0
	}
	route, ok := e.FIB.Lookup(ip.Dst)
	if !ok {
		e.C.NoRoute++
		return FwdToCPU, 0
	}
	nh := route.NextHop
	if nh.IsZero() {
		nh = ip.Dst // directly connected
	}
	dstMAC, ok := e.ARP.Get(nh)
	if !ok {
		e.C.ARPMiss++
		return FwdToCPU, 0
	}
	// Rewrite in place: L2 addresses, TTL decrement, incremental
	// checksum (RFC 1624), the hardware datapath's exact operations.
	out := int(route.Port)
	copy(data[0:6], dstMAC[:])
	copy(data[6:12], e.Ifs[out].MAC[:])
	ipOff := pkt.EthernetHeaderSize
	oldWord := binary.BigEndian.Uint16(data[ipOff+8 : ipOff+10])
	data[ipOff+8]-- // TTL
	newWord := binary.BigEndian.Uint16(data[ipOff+8 : ipOff+10])
	oldSum := binary.BigEndian.Uint16(data[ipOff+10 : ipOff+12])
	binary.BigEndian.PutUint16(data[ipOff+10:ipOff+12], pkt.UpdateChecksum16(oldSum, oldWord, newWord))
	e.C.Forwarded++
	return FwdForward, route.Port
}

// SlowPath handles a punted frame: ARP processing, ICMP generation,
// local delivery, and parking packets on unresolved next hops. It
// returns the frames to transmit (ports are physical indices).
func (e *Engine) SlowPath(data []byte, ingress uint8) []netfpga.Emit {
	p, err := pkt.Decode(data)
	if err != nil {
		return nil
	}
	switch {
	case p.ARP != nil:
		return e.handleARP(p, ingress)
	case p.IPv4 != nil:
		return e.handleIP(p, data, ingress)
	}
	return nil
}

func (e *Engine) handleARP(p *pkt.Packet, ingress uint8) []netfpga.Emit {
	a := p.ARP
	switch a.Op {
	case pkt.ARPRequest:
		if int(ingress) < len(e.Ifs) && a.TargetIP == e.Ifs[ingress].IP {
			reply, err := pkt.BuildARPReply(e.Ifs[ingress].MAC, e.Ifs[ingress].IP, a.SenderHW, a.SenderIP)
			if err != nil {
				return nil
			}
			// Opportunistically learn the requester.
			e.learnARP(a.SenderIP, a.SenderHW)
			return append([]netfpga.Emit{{Port: int(ingress), Data: pkt.PadToMin(reply)}},
				e.flushPending(a.SenderIP)...)
		}
	case pkt.ARPReply:
		e.learnARP(a.SenderIP, a.SenderHW)
		return e.flushPending(a.SenderIP)
	}
	return nil
}

func (e *Engine) learnARP(ip pkt.IP4, mac pkt.MAC) {
	if ip.IsZero() || mac.IsZero() {
		return
	}
	e.ARP.Put(ip, mac)
	if e.nowFn != nil {
		e.arpSeen.Put(ip, e.nowFn())
	}
}

// flushPending re-forwards packets that were waiting on nh.
func (e *Engine) flushPending(nh pkt.IP4) []netfpga.Emit {
	parked, _ := e.pending.Get(nh)
	if len(parked) == 0 {
		return nil
	}
	e.pending.Delete(nh)
	var out []netfpga.Emit
	for _, data := range parked {
		if res, port := e.Forward(data, 0xFF); res == FwdForward {
			out = append(out, netfpga.Emit{Port: int(port), Data: data})
		}
	}
	return out
}

func (e *Engine) handleIP(p *pkt.Packet, data []byte, ingress uint8) []netfpga.Emit {
	ip := p.IPv4
	switch {
	case e.localIP(ip.Dst):
		if p.ICMP != nil && p.ICMP.Type == pkt.ICMPv4EchoRequest {
			return e.emitICMPEcho(p, ingress)
		}
		return nil // other local traffic terminates here
	case ip.TTL <= 1:
		return e.emitICMPError(p, pkt.ICMPv4TimeExceeded, 0, ingress)
	}
	route, ok := e.FIB.Lookup(ip.Dst)
	if !ok {
		return e.emitICMPError(p, pkt.ICMPv4DestUnreachable, pkt.ICMPv4CodeNetUnreachable, ingress)
	}
	nh := route.NextHop
	if nh.IsZero() {
		nh = ip.Dst
	}
	if _, ok := e.ARP.Get(nh); !ok {
		// Park the packet and ARP for the next hop.
		e.C.ARPPunt++
		q, _ := e.pending.Get(nh)
		if len(q) >= e.pendingCap {
			q = q[1:]
			e.C.PendingDrops++
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		e.pending.Put(nh, append(q, cp))
		req, err := pkt.BuildARPRequest(e.Ifs[route.Port].MAC, e.Ifs[route.Port].IP, nh)
		if err != nil {
			return nil
		}
		e.C.ARPSent++
		return []netfpga.Emit{{Port: int(route.Port), Data: pkt.PadToMin(req)}}
	}
	// Resolvable after all (e.g. raced with a learn): forward now.
	cp := make([]byte, len(data))
	copy(cp, data)
	if res, port := e.Forward(cp, ingress); res == FwdForward {
		return []netfpga.Emit{{Port: int(port), Data: cp}}
	}
	return nil
}

// emitICMPEcho answers a ping to a router interface.
func (e *Engine) emitICMPEcho(p *pkt.Packet, ingress uint8) []netfpga.Emit {
	if int(ingress) >= len(e.Ifs) {
		return nil
	}
	reply, err := pkt.BuildICMPEcho(e.Ifs[ingress].MAC, p.Eth.Src,
		p.IPv4.Dst, p.IPv4.Src, p.ICMP.ID, p.ICMP.Seq, true, p.Payload)
	if err != nil {
		return nil
	}
	e.C.ICMPSent++
	return []netfpga.Emit{{Port: int(ingress), Data: pkt.PadToMin(reply)}}
}

// emitICMPError sends an ICMP error to the offending packet's source,
// quoting the IP header + 8 bytes as RFC 792 requires.
func (e *Engine) emitICMPError(p *pkt.Packet, icmpType, icmpCode uint8, ingress uint8) []netfpga.Emit {
	if int(ingress) >= len(e.Ifs) {
		return nil
	}
	ifc := e.Ifs[ingress]
	// Quote the original IP header and first 8 payload bytes.
	hdrLen := p.IPv4.HeaderLen()
	quote := hdrLen + 8
	full := p.Eth.LayerPayload()
	if quote > len(full) {
		quote = len(full)
	}
	ip := &pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoICMP, Src: ifc.IP, Dst: p.IPv4.Src}
	frame, err := pkt.Serialize(pkt.SerializeOptions{FixLengths: true, ComputeChecksums: true},
		&pkt.Ethernet{Dst: p.Eth.Src, Src: ifc.MAC, EtherType: pkt.EtherTypeIPv4},
		ip,
		&pkt.ICMPv4{Type: icmpType, Code: icmpCode},
		pkt.Payload(full[:quote]))
	if err != nil {
		return nil
	}
	e.C.ICMPSent++
	return []netfpga.Emit{{Port: int(ingress), Data: pkt.PadToMin(frame)}}
}
