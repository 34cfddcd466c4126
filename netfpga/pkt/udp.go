package pkt

import "encoding/binary"

// UDP is a UDP header (RFC 768).
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
	payload          []byte

	// psrc/pdst feed the pseudo-header checksum during serialization;
	// set them with SetNetworkLayerForChecksum.
	psrc, pdst IP4
	hasNet     bool
}

// SetNetworkLayerForChecksum provides the enclosing IPv4 addresses needed
// for checksum computation.
func (u *UDP) SetNetworkLayerForChecksum(ip *IPv4) {
	u.psrc, u.pdst = ip.Src, ip.Dst
	u.hasNet = true
}

// LayerType implements DecodingLayer.
func (u *UDP) LayerType() LayerType { return LayerTypeUDP }

// DecodeFromBytes implements DecodingLayer.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return ErrTooShort
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	if int(u.Length) < 8 || int(u.Length) > len(data) {
		return ErrLength
	}
	u.payload = data[8:u.Length]
	return nil
}

// NextLayerType implements DecodingLayer.
func (u *UDP) NextLayerType() LayerType { return LayerTypePayload }

// LayerPayload implements DecodingLayer.
func (u *UDP) LayerPayload() []byte { return u.payload }

// SerializeTo implements SerializableLayer.
func (u *UDP) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	payloadLen := b.Len()
	h := b.PrependBytes(8)
	binary.BigEndian.PutUint16(h[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(h[2:4], u.DstPort)
	if opts.FixLengths {
		u.Length = uint16(8 + payloadLen)
	}
	binary.BigEndian.PutUint16(h[4:6], u.Length)
	h[6], h[7] = 0, 0
	if opts.ComputeChecksums {
		if !u.hasNet {
			return errNoNetworkLayer
		}
		acc := PseudoHeaderSum(IPProtoUDP, u.psrc, u.pdst, u.Length)
		c := Checksum(b.Bytes()[:8+payloadLen], acc)
		if c == 0 {
			c = 0xFFFF // RFC 768: transmitted zero means "no checksum"
		}
		u.Checksum = c
	}
	binary.BigEndian.PutUint16(h[6:8], u.Checksum)
	return nil
}
