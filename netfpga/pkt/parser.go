package pkt

import "fmt"

// Parser decodes a known protocol stack into preallocated layer structs
// with zero allocation per packet — the DecodingLayerParser idiom. No
// shipped module decodes through it: the router uses Decode and the
// switch decodes an Ethernet header directly. It is kept for the
// benchmark's parse probe.
//
// A Parser is not safe for concurrent use; each user owns its own.
type Parser struct {
	first  LayerType
	layers [numLayerTypes]DecodingLayer
	// Truncated is set when decoding stopped because a layer reported
	// ErrTooShort, mirroring gopacket's truncated flag.
	Truncated bool
}

// NewParser returns a parser that starts decoding at first and knows the
// given layers; Parse says how it stops at a layer it has no decoder for.
func NewParser(first LayerType, layers ...DecodingLayer) *Parser {
	p := &Parser{first: first}
	for _, l := range layers {
		p.layers[l.LayerType()] = l
	}
	return p
}

// UnsupportedLayerError reports a decode that stopped at a layer type the
// parser has no DecodingLayer for.
type UnsupportedLayerError struct {
	Type LayerType
}

func (e UnsupportedLayerError) Error() string {
	return fmt.Sprintf("pkt: no decoder for layer %s", e.Type)
}

// Parse decodes data, appending each decoded layer's type to *decoded
// (which is truncated first). If a layer type without a registered
// decoder is encountered, Parse stops and returns UnsupportedLayerError;
// the already-decoded layers remain valid. Malformed data returns the
// failing layer's error.
func (p *Parser) Parse(data []byte, decoded *[]LayerType) error {
	*decoded = (*decoded)[:0]
	p.Truncated = false
	typ := p.first
	for typ != LayerTypeNone {
		l := p.layers[typ]
		if l == nil {
			return UnsupportedLayerError{Type: typ}
		}
		if err := l.DecodeFromBytes(data); err != nil {
			if err == ErrTooShort {
				p.Truncated = true
			}
			return err
		}
		*decoded = append(*decoded, typ)
		data = l.LayerPayload()
		typ = l.NextLayerType()
		if typ == LayerTypePayload && p.layers[LayerTypePayload] == nil {
			return nil // opaque payload, parser has no interest
		}
		if len(data) == 0 && typ != LayerTypeNone {
			return nil
		}
	}
	return nil
}

// Packet is the convenience full-decode result: pointer fields are non-nil
// for each layer present. Unlike Parser, Decode allocates; use it off the
// hot path (tests, software agents, CLIs).
type Packet struct {
	Eth     *Ethernet
	VLAN    *VLAN
	ARP     *ARP
	IPv4    *IPv4
	ICMP    *ICMPv4
	UDP     *UDP
	TCP     *TCP
	Payload []byte
	// Types lists decoded layers outermost-first.
	Types []LayerType
}

// Decode fully decodes an Ethernet frame. Decoding stops gracefully at
// the first opaque or truncated layer: err is non-nil only when the
// outermost layer is malformed.
func Decode(data []byte) (*Packet, error) {
	p := &Packet{Eth: &Ethernet{}}
	if err := p.Eth.DecodeFromBytes(data); err != nil {
		return nil, err
	}
	p.Types = append(p.Types, LayerTypeEthernet)
	next := p.Eth.NextLayerType()
	rest := p.Eth.LayerPayload()
	if next == LayerTypeVLAN {
		p.VLAN = &VLAN{}
		if err := p.VLAN.DecodeFromBytes(rest); err != nil {
			p.VLAN = nil
			p.Payload = rest
			return p, nil
		}
		p.Types = append(p.Types, LayerTypeVLAN)
		next, rest = p.VLAN.NextLayerType(), p.VLAN.LayerPayload()
	}
	switch next {
	case LayerTypeARP:
		p.ARP = &ARP{}
		if err := p.ARP.DecodeFromBytes(rest); err != nil {
			p.ARP = nil
			p.Payload = rest
			return p, nil
		}
		p.Types = append(p.Types, LayerTypeARP)
		return p, nil
	case LayerTypeIPv4:
		p.IPv4 = &IPv4{}
		if err := p.IPv4.DecodeFromBytes(rest); err != nil {
			p.IPv4 = nil
			p.Payload = rest
			return p, nil
		}
		p.Types = append(p.Types, LayerTypeIPv4)
		next, rest = p.IPv4.NextLayerType(), p.IPv4.LayerPayload()
	default:
		p.Payload = rest
		return p, nil
	}
	switch next {
	case LayerTypeICMPv4:
		p.ICMP = &ICMPv4{}
		if err := p.ICMP.DecodeFromBytes(rest); err != nil {
			p.ICMP = nil
			p.Payload = rest
			return p, nil
		}
		p.Types = append(p.Types, LayerTypeICMPv4)
		p.Payload = p.ICMP.LayerPayload()
	case LayerTypeUDP:
		p.UDP = &UDP{}
		if err := p.UDP.DecodeFromBytes(rest); err != nil {
			p.UDP = nil
			p.Payload = rest
			return p, nil
		}
		p.Types = append(p.Types, LayerTypeUDP)
		p.Payload = p.UDP.LayerPayload()
	case LayerTypeTCP:
		p.TCP = &TCP{}
		if err := p.TCP.DecodeFromBytes(rest); err != nil {
			p.TCP = nil
			p.Payload = rest
			return p, nil
		}
		p.Types = append(p.Types, LayerTypeTCP)
		p.Payload = p.TCP.LayerPayload()
	default:
		p.Payload = rest
	}
	return p, nil
}
