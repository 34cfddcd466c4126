// Package pkt implements wire-format packet decoding and construction for
// gonetfpga in the style of gopacket: layers decode from byte slices
// without copying, a DecodingLayer parser reuses preallocated layer
// structs on the hot path, and serialization prepends headers onto a
// SerializeBuffer so a packet is built back-to-front.
//
// The package covers the protocols the NetFPGA reference projects speak:
// Ethernet (with 802.1Q), ARP, IPv4, ICMPv4, UDP and TCP, plus internet
// and CRC-32 checksums, symmetric flow hashing, and packet builders used
// by workload generators and tests.
package pkt

import "errors"

// LayerType identifies a protocol layer. The zero value means "none".
type LayerType uint8

// Known layer types.
const (
	LayerTypeNone LayerType = iota
	LayerTypeEthernet
	LayerTypeVLAN
	LayerTypeARP
	LayerTypeIPv4
	LayerTypeICMPv4
	LayerTypeUDP
	LayerTypeTCP
	LayerTypePayload

	numLayerTypes
)

var layerTypeNames = [...]string{
	LayerTypeNone:     "None",
	LayerTypeEthernet: "Ethernet",
	LayerTypeVLAN:     "VLAN",
	LayerTypeARP:      "ARP",
	LayerTypeIPv4:     "IPv4",
	LayerTypeICMPv4:   "ICMPv4",
	LayerTypeUDP:      "UDP",
	LayerTypeTCP:      "TCP",
	LayerTypePayload:  "Payload",
}

// String returns the layer type's name.
func (t LayerType) String() string {
	if int(t) < len(layerTypeNames) {
		return layerTypeNames[t]
	}
	return "Unknown"
}

// DecodingLayer is a layer that can decode itself from bytes. Decoding
// retains sub-slices of the input — the caller must not mutate data while
// the layer is in use. This is the zero-copy contract gopacket calls
// NoCopy.
type DecodingLayer interface {
	// LayerType identifies the layer.
	LayerType() LayerType
	// DecodeFromBytes parses data into the receiver, replacing prior
	// state.
	DecodeFromBytes(data []byte) error
	// NextLayerType returns the type of the payload's layer, or
	// LayerTypeNone/LayerTypePayload when unknown or opaque.
	NextLayerType() LayerType
	// LayerPayload returns the bytes following this layer's header.
	LayerPayload() []byte
}

// SerializableLayer is a layer that can write itself in front of a
// buffer's current contents.
type SerializableLayer interface {
	LayerType() LayerType
	// SerializeTo prepends the layer onto b, treating b's current
	// content as its payload.
	SerializeTo(b *SerializeBuffer, opts SerializeOptions) error
}

// SerializeOptions control header fix-ups during serialization.
type SerializeOptions struct {
	// FixLengths back-patches length fields (IPv4 total length, UDP
	// length, IHL/data offset) from actual payload sizes.
	FixLengths bool
	// ComputeChecksums recomputes checksums (IPv4 header, ICMP, UDP,
	// TCP).
	ComputeChecksums bool
}

// EtherType values.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	EtherTypeVLAN uint16 = 0x8100
)

// IP protocol numbers.
const (
	IPProtoICMP uint8 = 1
	IPProtoTCP  uint8 = 6
	IPProtoUDP  uint8 = 17
)

// Common frame-size constants (without FCS).
const (
	// MinFrameSize is the minimum Ethernet frame (64 bytes on the wire)
	// minus the 4-byte FCS, i.e. the minimum payload a datapath carries.
	MinFrameSize = 60
	// MaxFrameSize is the standard maximum (1518 on the wire) minus FCS.
	MaxFrameSize = 1514
	// EthernetHeaderSize is the untagged Ethernet header size.
	EthernetHeaderSize = 14
)

// Decode errors.
var (
	ErrTooShort = errors.New("pkt: data too short for header")
	ErrVersion  = errors.New("pkt: unexpected protocol version")
	ErrLength   = errors.New("pkt: header length field out of range")
)
