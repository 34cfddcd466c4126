package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"repro/netfpga/hw"
)

func TestRoundTripNanos(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	times := []hw.Time{0, 123 * hw.Nanosecond, hw.Second + 5*hw.Microsecond, 3*hw.Second + 999*hw.Millisecond}
	for i, ts := range times {
		data := bytes.Repeat([]byte{byte(i)}, 60+i)
		if err := w.WritePacket(ts, data); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count != len(times) {
		t.Fatalf("count = %d", w.Count)
	}

	pkts, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != len(times) {
		t.Fatalf("read %d packets", len(pkts))
	}
	for i, p := range pkts {
		if p.TS != times[i] {
			t.Errorf("packet %d ts = %v, want %v", i, p.TS, times[i])
		}
		if len(p.Data) != 60+i || p.Data[0] != byte(i) {
			t.Errorf("packet %d data wrong", i)
		}
		if p.OrigLen != 60+i {
			t.Errorf("packet %d origlen = %d", i, p.OrigLen)
		}
	}
}

func TestRoundTripMicros(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0, false)
	ts := 7*hw.Second + 123456*hw.Microsecond + 789*hw.Nanosecond
	w.WritePacket(ts, []byte{1, 2, 3})
	pkts, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Microsecond files quantize to 1us.
	want := 7*hw.Second + 123456*hw.Microsecond
	if pkts[0].TS != want {
		t.Fatalf("ts = %v, want %v", pkts[0].TS, want)
	}
}

func TestSnapLenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 64, true)
	big := make([]byte, 1500)
	big[63], big[64] = 0xAA, 0xBB
	w.WritePacket(0, big)
	pkts, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts[0].Data) != 64 || pkts[0].OrigLen != 1500 {
		t.Fatalf("cap=%d orig=%d", len(pkts[0].Data), pkts[0].OrigLen)
	}
	if pkts[0].Data[63] != 0xAA {
		t.Fatal("truncated content wrong")
	}
}

// record appends one record header claiming capLen captured bytes, and
// then data, to a capture.
func record(file []byte, capLen uint32, data []byte) []byte {
	var hdr [recordSize]byte
	binary.LittleEndian.PutUint32(hdr[8:12], capLen)
	binary.LittleEndian.PutUint32(hdr[12:16], capLen)
	return append(append(file, hdr[:]...), data...)
}

// TestRecordOverSnapLen: the header's snap length bounds every record a
// reader accepts; a file whose header says 0 is bounded only by
// maxRecordLen.
func TestRecordOverSnapLen(t *testing.T) {
	header := func(snaplen uint32) []byte {
		var buf bytes.Buffer
		NewWriter(&buf, 64, true)
		b := buf.Bytes()
		binary.LittleEndian.PutUint32(b[16:20], snaplen)
		return b
	}
	for _, tc := range []struct {
		name            string
		snaplen, capLen uint32
		want            string // "" if the record is read, else part of the error
	}{
		{"at the snap length", 64, 64, ""},
		{"over the snap length", 64, 65, ErrSnapLen.Error()},
		{"far over the snap length", 64, 1 << 20, ErrSnapLen.Error()},
		{"no snap length", 0, 1500, ""},
		{"over the record bound", 0, maxRecordLen + 1, "implausible"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			file := record(header(tc.snaplen), tc.capLen, make([]byte, min(tc.capLen, 4096)))
			r, err := NewReader(bytes.NewReader(file))
			if err != nil {
				t.Fatal(err)
			}
			p, err := r.Next()
			if tc.want == "" && (err != nil || len(p.Data) != int(tc.capLen)) {
				t.Fatalf("record of %d bytes: %d read, err %v", tc.capLen, len(p.Data), err)
			}
			if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("record of %d bytes under snap length %d: err %v, want %q", tc.capLen, tc.snaplen, err, tc.want)
			}
		})
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); err != ErrBadMagic {
		t.Fatalf("err = %v", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0, true)
	w.WritePacket(0, make([]byte, 100))
	cut := buf.Bytes()[:buf.Len()-10]
	r, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	NewWriter(&buf, 0, true)
	pkts, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(pkts) != 0 {
		t.Fatalf("pkts=%d err=%v", len(pkts), err)
	}
}

// Property: arbitrary packet sets round-trip through the writer/reader.
func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte, tsRaw []uint32) bool {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, 0, true)
		if err != nil {
			return false
		}
		n := len(payloads)
		if len(tsRaw) < n {
			n = len(tsRaw)
		}
		var want []Packet
		for i := 0; i < n; i++ {
			data := payloads[i]
			if len(data) == 0 {
				data = []byte{0}
			}
			if len(data) > 2000 {
				data = data[:2000]
			}
			ts := hw.Time(tsRaw[i]) * hw.Nanosecond
			if err := w.WritePacket(ts, data); err != nil {
				return false
			}
			want = append(want, Packet{TS: ts, Data: data, OrigLen: len(data)})
		}
		got, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].TS != want[i].TS || !bytes.Equal(got[i].Data, want[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
