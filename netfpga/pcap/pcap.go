// Package pcap reads and writes classic libpcap capture files (the
// format OSNT replays and produces), supporting both microsecond and
// nanosecond timestamp variants. Only the stdlib is used.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/netfpga/hw"
)

// File format constants.
const (
	magicMicro   = 0xa1b2c3d4
	magicNano    = 0xa1b23c4d
	versionMajor = 2
	versionMinor = 4
	// LinkTypeEthernet is the only link type gonetfpga produces.
	LinkTypeEthernet = 1
	headerSize       = 24
	recordSize       = 16
	// maxRecordLen bounds a record's captured length whatever the header
	// says: libpcap's own MAXIMUM_SNAPLEN, past which it refuses a file.
	maxRecordLen = 262144
)

// Errors.
var (
	ErrBadMagic = errors.New("pcap: bad magic number")
	ErrSnapLen  = errors.New("pcap: packet exceeds snap length")
)

// Packet is one captured record.
type Packet struct {
	// TS is the capture timestamp in simulation time.
	TS hw.Time
	// Data is the captured bytes (possibly truncated to snaplen).
	Data []byte
	// OrigLen is the packet's original length on the wire.
	OrigLen int
}

// Writer emits a pcap stream.
type Writer struct {
	w       io.Writer
	snaplen uint32
	nanos   bool
	scratch [recordSize]byte
	// Count is the number of packets written.
	Count int
}

// NewWriter writes the file header and returns a Writer. When nanos is
// set, the nanosecond-resolution variant is emitted; OSNT timestamps are
// finer than a microsecond, so nanosecond files are the default in the
// tools. A snaplen of 0 means 65535.
func NewWriter(w io.Writer, snaplen uint32, nanos bool) (*Writer, error) {
	if snaplen == 0 {
		snaplen = 65535
	}
	var hdr [headerSize]byte
	magic := uint32(magicMicro)
	if nanos {
		magic = magicNano
	}
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], snaplen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: w, snaplen: snaplen, nanos: nanos}, nil
}

// WritePacket appends one record with the given capture timestamp.
func (w *Writer) WritePacket(ts hw.Time, data []byte) error {
	capLen := len(data)
	if uint32(capLen) > w.snaplen {
		capLen = int(w.snaplen)
	}
	sec := uint32(ts / hw.Second)
	var frac uint32
	if w.nanos {
		frac = uint32((ts % hw.Second) / hw.Nanosecond)
	} else {
		frac = uint32((ts % hw.Second) / hw.Microsecond)
	}
	binary.LittleEndian.PutUint32(w.scratch[0:4], sec)
	binary.LittleEndian.PutUint32(w.scratch[4:8], frac)
	binary.LittleEndian.PutUint32(w.scratch[8:12], uint32(capLen))
	binary.LittleEndian.PutUint32(w.scratch[12:16], uint32(len(data)))
	if _, err := w.w.Write(w.scratch[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(data[:capLen]); err != nil {
		return err
	}
	w.Count++
	return nil
}

// Reader consumes a pcap stream.
type Reader struct {
	r       io.Reader
	order   binary.ByteOrder
	nanos   bool
	snaplen uint32
	scratch [recordSize]byte
}

// NewReader parses the file header. Both endiannesses and both timestamp
// resolutions are accepted.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading header: %w", err)
	}
	rd := &Reader{r: r}
	switch binary.LittleEndian.Uint32(hdr[0:4]) {
	case magicMicro:
		rd.order = binary.LittleEndian
	case magicNano:
		rd.order, rd.nanos = binary.LittleEndian, true
	default:
		switch binary.BigEndian.Uint32(hdr[0:4]) {
		case magicMicro:
			rd.order = binary.BigEndian
		case magicNano:
			rd.order, rd.nanos = binary.BigEndian, true
		default:
			return nil, ErrBadMagic
		}
	}
	rd.snaplen = rd.order.Uint32(hdr[16:20])
	return rd, nil
}

// Next returns the next record, or io.EOF at a clean end of file. A
// truncated trailing record returns io.ErrUnexpectedEOF, and a record
// longer than the header's non-zero snap length ErrSnapLen: the header
// and records are input, and a record is allocated at its stated size.
func (r *Reader) Next() (Packet, error) {
	if _, err := io.ReadFull(r.r, r.scratch[:]); err != nil {
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		return Packet{}, io.ErrUnexpectedEOF
	}
	sec := r.order.Uint32(r.scratch[0:4])
	frac := r.order.Uint32(r.scratch[4:8])
	capLen := r.order.Uint32(r.scratch[8:12])
	origLen := r.order.Uint32(r.scratch[12:16])
	if r.snaplen != 0 && capLen > r.snaplen {
		return Packet{}, ErrSnapLen
	}
	if capLen > maxRecordLen {
		return Packet{}, fmt.Errorf("pcap: implausible record length %d", capLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Packet{}, io.ErrUnexpectedEOF
	}
	ts := hw.Time(sec) * hw.Second
	if r.nanos {
		ts += hw.Time(frac) * hw.Nanosecond
	} else {
		ts += hw.Time(frac) * hw.Microsecond
	}
	return Packet{TS: ts, Data: data, OrigLen: int(origLen)}, nil
}

// ReadAll slurps every record of a stream.
func ReadAll(r io.Reader) ([]Packet, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var pkts []Packet
	for {
		p, err := rd.Next()
		if err == io.EOF {
			return pkts, nil
		}
		if err != nil {
			return pkts, err
		}
		pkts = append(pkts, p)
	}
}
