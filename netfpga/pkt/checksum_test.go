package pkt

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestChecksumKnownVector(t *testing.T) {
	// Classic RFC 1071 example header.
	hdr := []byte{
		0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
		0x40, 0x11, 0x00, 0x00, // checksum zeroed
		0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
	}
	got := Checksum(hdr, 0)
	if got != 0xb861 {
		t.Fatalf("checksum = 0x%04x, want 0xb861", got)
	}
	// Filling it in makes the sum verify to zero.
	binary.BigEndian.PutUint16(hdr[10:12], got)
	if Checksum(hdr, 0) != 0 {
		t.Fatal("checksum does not verify")
	}
}

func TestChecksumOddLength(t *testing.T) {
	data := []byte{0x01}
	if Checksum(data, 0) != ^uint16(0x0100) {
		t.Fatalf("odd-length checksum wrong: %04x", Checksum(data, 0))
	}
}

// Property: incremental update (RFC 1624) matches full recomputation when
// one 16-bit word of a header changes. This is the invariant the router's
// TTL-decrement hardware relies on.
func TestIncrementalChecksumProperty(t *testing.T) {
	f := func(words []uint16, idx uint8, newVal uint16) bool {
		if len(words) == 0 {
			return true
		}
		if len(words) > 30 {
			words = words[:30]
		}
		i := int(idx) % len(words)
		buf := make([]byte, len(words)*2)
		for j, w := range words {
			binary.BigEndian.PutUint16(buf[j*2:], w)
		}
		old := Checksum(buf, 0)
		oldWord := words[i]
		binary.BigEndian.PutUint16(buf[i*2:], newVal)
		full := Checksum(buf, 0)
		inc := UpdateChecksum16(old, oldWord, newVal)
		// ~0 and 0 are equivalent representations in one's complement;
		// the internet checksum never produces 0xFFFF from a fold of
		// nonzero data, but allow either to compare equal.
		norm := func(c uint16) uint16 {
			if c == 0xFFFF {
				return 0
			}
			return c
		}
		return norm(full) == norm(inc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTTLDecrementIncremental(t *testing.T) {
	// Build a real header, decrement TTL the way the router does, verify.
	ip := &IPv4{TTL: 64, Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP}
	data, err := Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true},
		ip, Payload(make([]byte, 8)))
	if err != nil {
		t.Fatal(err)
	}
	oldWord := binary.BigEndian.Uint16(data[8:10]) // TTL|Proto
	data[8]--                                      // TTL 63
	newWord := binary.BigEndian.Uint16(data[8:10])
	oldSum := binary.BigEndian.Uint16(data[10:12])
	binary.BigEndian.PutUint16(data[10:12], UpdateChecksum16(oldSum, oldWord, newWord))
	var d IPv4
	if err := d.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if !d.VerifyChecksum(data) {
		t.Fatal("incrementally updated checksum invalid")
	}
	if d.TTL != 63 {
		t.Fatalf("TTL = %d", d.TTL)
	}
}

// Property: the FCS detects every single-bit flip.
func TestFCSProperty(t *testing.T) {
	f := func(frame []byte, flipByte uint16, flipBit uint8) bool {
		if len(frame) == 0 {
			frame = []byte{0}
		}
		fcs := FCS(frame)
		i := int(flipByte) % len(frame)
		frame[i] ^= 1 << (flipBit % 8)
		return FCS(frame) != fcs // CRC32 always catches single-bit errors
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPseudoHeaderSum(t *testing.T) {
	// The pseudo-header sum must make a correct UDP datagram verify.
	frame, err := BuildUDP(UDPSpec{SrcMAC: testSrcMAC, DstMAC: testDstMAC,
		SrcIP: testSrcIP, DstIP: testDstIP, SrcPort: 1, DstPort: 2, Payload: []byte("abc")})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := Decode(frame)
	dgram := p.IPv4.LayerPayload()
	acc := PseudoHeaderSum(IPProtoUDP, p.IPv4.Src, p.IPv4.Dst, uint16(len(dgram)))
	if Checksum(dgram, acc) != 0 {
		t.Fatal("pseudo-header checksum does not verify")
	}
}
