package pkt

import (
	"encoding/binary"
	"errors"
)

var errNoNetworkLayer = errors.New("pkt: transport checksum requested without SetNetworkLayerForChecksum")

// TCP flag bits.
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// TCP is a TCP header (RFC 793).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	Options          []byte
	payload          []byte

	psrc, pdst IP4
	hasNet     bool
}

// SetNetworkLayerForChecksum provides the enclosing IPv4 addresses needed
// for checksum computation.
func (t *TCP) SetNetworkLayerForChecksum(ip *IPv4) {
	t.psrc, t.pdst = ip.Src, ip.Dst
	t.hasNet = true
}

// LayerType implements DecodingLayer.
func (t *TCP) LayerType() LayerType { return LayerTypeTCP }

// DecodeFromBytes implements DecodingLayer.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return ErrTooShort
	}
	off := int(data[12]>>4) * 4
	if off < 20 || off > len(data) {
		return ErrLength
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.Flags = data[13] & 0x3F
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	t.Options = data[20:off]
	t.payload = data[off:]
	return nil
}

// NextLayerType implements DecodingLayer.
func (t *TCP) NextLayerType() LayerType { return LayerTypePayload }

// LayerPayload implements DecodingLayer.
func (t *TCP) LayerPayload() []byte { return t.payload }

// HeaderLen returns the header length in bytes for the current Options.
func (t *TCP) HeaderLen() int { return 20 + (len(t.Options)+3)&^3 }

// SerializeTo implements SerializableLayer.
func (t *TCP) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	hlen := t.HeaderLen()
	if hlen > 60 {
		return ErrLength
	}
	payloadLen := b.Len()
	h := b.PrependBytes(hlen)
	binary.BigEndian.PutUint16(h[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(h[2:4], t.DstPort)
	binary.BigEndian.PutUint32(h[4:8], t.Seq)
	binary.BigEndian.PutUint32(h[8:12], t.Ack)
	h[12] = uint8(hlen/4) << 4
	h[13] = t.Flags & 0x3F
	binary.BigEndian.PutUint16(h[14:16], t.Window)
	h[16], h[17] = 0, 0
	binary.BigEndian.PutUint16(h[18:20], t.Urgent)
	copy(h[20:], t.Options)
	for i := 20 + len(t.Options); i < hlen; i++ {
		h[i] = 0
	}
	if opts.ComputeChecksums {
		if !t.hasNet {
			return errNoNetworkLayer
		}
		acc := PseudoHeaderSum(IPProtoTCP, t.psrc, t.pdst, uint16(hlen+payloadLen))
		t.Checksum = Checksum(b.Bytes()[:hlen+payloadLen], acc)
	}
	binary.BigEndian.PutUint16(h[16:18], t.Checksum)
	return nil
}
