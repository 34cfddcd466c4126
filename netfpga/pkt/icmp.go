package pkt

import "encoding/binary"

// ICMPv4 types used by the reference router.
const (
	ICMPv4EchoReply       uint8 = 0
	ICMPv4DestUnreachable uint8 = 3
	ICMPv4EchoRequest     uint8 = 8
	ICMPv4TimeExceeded    uint8 = 11
)

// ICMPv4CodeNetUnreachable is the destination-unreachable code the
// reference router sends when it has no route.
const ICMPv4CodeNetUnreachable uint8 = 0

// ICMPv4 is an ICMP header (RFC 792). ID and Seq are meaningful for echo
// messages and zero otherwise.
type ICMPv4 struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	ID, Seq  uint16
	payload  []byte
}

// LayerType implements DecodingLayer.
func (c *ICMPv4) LayerType() LayerType { return LayerTypeICMPv4 }

// DecodeFromBytes implements DecodingLayer.
func (c *ICMPv4) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return ErrTooShort
	}
	c.Type = data[0]
	c.Code = data[1]
	c.Checksum = binary.BigEndian.Uint16(data[2:4])
	c.ID = binary.BigEndian.Uint16(data[4:6])
	c.Seq = binary.BigEndian.Uint16(data[6:8])
	c.payload = data[8:]
	return nil
}

// NextLayerType implements DecodingLayer.
func (c *ICMPv4) NextLayerType() LayerType { return LayerTypePayload }

// LayerPayload implements DecodingLayer.
func (c *ICMPv4) LayerPayload() []byte { return c.payload }

// SerializeTo implements SerializableLayer.
func (c *ICMPv4) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	payloadLen := b.Len()
	h := b.PrependBytes(8)
	h[0] = c.Type
	h[1] = c.Code
	h[2], h[3] = 0, 0
	binary.BigEndian.PutUint16(h[4:6], c.ID)
	binary.BigEndian.PutUint16(h[6:8], c.Seq)
	if opts.ComputeChecksums {
		c.Checksum = Checksum(b.Bytes()[:8+payloadLen], 0)
	}
	binary.BigEndian.PutUint16(h[2:4], c.Checksum)
	return nil
}
