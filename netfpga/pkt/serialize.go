package pkt

// SerializeBuffer builds packets back-to-front: each layer prepends its
// header in front of the current contents, so serializing Payload, then
// TCP, then IPv4, then Ethernet yields a complete frame. This mirrors
// gopacket's SerializeBuffer contract.
type SerializeBuffer struct {
	buf   []byte
	start int
}

// NewSerializeBuffer returns an empty buffer with room for a typical
// frame.
func NewSerializeBuffer() *SerializeBuffer {
	const headroom = 128
	return &SerializeBuffer{buf: make([]byte, headroom, headroom+MaxFrameSize), start: headroom}
}

// Bytes returns the current contents. The slice is invalidated by the next
// Prepend/Append/Clear.
func (b *SerializeBuffer) Bytes() []byte { return b.buf[b.start:] }

// Len returns the current content length.
func (b *SerializeBuffer) Len() int { return len(b.buf) - b.start }

// Clear empties the buffer for reuse. It keeps all the headroom a larger
// packet grew, so serializing one of the same size again allocates
// nothing.
func (b *SerializeBuffer) Clear() {
	const headroom = 128
	if len(b.buf) < headroom {
		b.buf = make([]byte, headroom, headroom+MaxFrameSize)
	}
	b.start = len(b.buf)
}

// PrependBytes returns an n-byte slice at the front of the buffer for a
// header to be written into.
func (b *SerializeBuffer) PrependBytes(n int) []byte {
	if n <= b.start {
		b.start -= n
		return b.buf[b.start : b.start+n]
	}
	// Grow headroom: reallocate with the content shifted right.
	grown := make([]byte, n+len(b.buf)-b.start+256)
	copy(grown[n+256:], b.buf[b.start:])
	b.buf = grown
	b.start = 256
	return b.buf[b.start : b.start+n]
}

// AppendBytes returns an n-byte slice at the back of the buffer, for
// payloads and trailers.
func (b *SerializeBuffer) AppendBytes(n int) []byte {
	old := len(b.buf)
	for cap(b.buf) < old+n {
		b.buf = append(b.buf[:cap(b.buf)], 0)
	}
	b.buf = b.buf[:old+n]
	return b.buf[old:]
}

// Serialize writes layers front-to-back (layers[0] outermost) and returns
// the assembled packet. It serializes in reverse so each layer sees its
// payload already in place, letting FixLengths and ComputeChecksums work.
func Serialize(opts SerializeOptions, layers ...SerializableLayer) ([]byte, error) {
	b := NewSerializeBuffer()
	if err := SerializeTo(b, opts, layers...); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// SerializeTo is Serialize into a caller-owned buffer (cleared first).
func SerializeTo(b *SerializeBuffer, opts SerializeOptions, layers ...SerializableLayer) error {
	b.Clear()
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(b, opts); err != nil {
			return err
		}
	}
	return nil
}

// Payload is a raw-bytes layer, usable both as the innermost
// SerializableLayer and as a terminal DecodingLayer.
type Payload []byte

// LayerType implements DecodingLayer and SerializableLayer.
func (p Payload) LayerType() LayerType { return LayerTypePayload }

// DecodeFromBytes implements DecodingLayer.
func (p *Payload) DecodeFromBytes(data []byte) error {
	*p = data
	return nil
}

// NextLayerType implements DecodingLayer.
func (p Payload) NextLayerType() LayerType { return LayerTypeNone }

// LayerPayload implements DecodingLayer.
func (p Payload) LayerPayload() []byte { return nil }

// SerializeTo implements SerializableLayer.
func (p Payload) SerializeTo(b *SerializeBuffer, _ SerializeOptions) error {
	copy(b.PrependBytes(len(p)), p)
	return nil
}
