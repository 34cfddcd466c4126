package pkt

import "hash/crc32"

// Internet checksum (RFC 1071) and Ethernet FCS helpers. Hardware offload
// modules and the router's incremental TTL/checksum update both build on
// these.

// checksumFold sums data into acc as 16-bit big-endian words without
// folding. An odd trailing byte is padded with zero.
func checksumFold(data []byte, acc uint32) uint32 {
	n := len(data) &^ 1
	for i := 0; i < n; i += 2 {
		acc += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if len(data)&1 == 1 {
		acc += uint32(data[len(data)-1]) << 8
	}
	return acc
}

// finishChecksum folds acc to 16 bits and complements it.
func finishChecksum(acc uint32) uint16 {
	for acc > 0xFFFF {
		acc = (acc >> 16) + (acc & 0xFFFF)
	}
	return ^uint16(acc)
}

// Checksum computes the internet checksum of data with an initial partial
// sum (use 0 unless chaining a pseudo-header).
func Checksum(data []byte, initial uint32) uint16 {
	return finishChecksum(checksumFold(data, initial))
}

// PseudoHeaderSum returns the partial sum of the IPv4 pseudo-header used
// by TCP and UDP checksums.
func PseudoHeaderSum(proto uint8, src, dst IP4, length uint16) uint32 {
	var acc uint32
	acc += uint32(src[0])<<8 | uint32(src[1])
	acc += uint32(src[2])<<8 | uint32(src[3])
	acc += uint32(dst[0])<<8 | uint32(dst[1])
	acc += uint32(dst[2])<<8 | uint32(dst[3])
	acc += uint32(proto)
	acc += uint32(length)
	return acc
}

// UpdateChecksum16 incrementally updates a checksum when a single 16-bit
// word changes from old to new (RFC 1624, eqn. 3): this is the hardware
// trick the reference router uses to avoid re-summing the header after a
// TTL decrement.
func UpdateChecksum16(check, old, new uint16) uint16 {
	// HC' = ~(~HC + ~m + m')
	acc := uint32(^check&0xFFFF) + uint32(^old&0xFFFF) + uint32(new)
	for acc > 0xFFFF {
		acc = (acc >> 16) + (acc & 0xFFFF)
	}
	return ^uint16(acc)
}

// FCS computes the Ethernet frame check sequence (CRC-32/IEEE, reflected)
// over the frame bytes.
func FCS(frame []byte) uint32 {
	return crc32.ChecksumIEEE(frame)
}
