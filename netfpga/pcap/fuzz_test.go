package pcap

import (
	"bytes"
	"runtime"
	"testing"

	"repro/netfpga/hw"
)

// FuzzPcapReader holds the reader to input from outside the program.
// Read as a capture, arbitrary bytes never panic and no record costs
// more memory than the header's snap length (or maxRecordLen) allows.
// Written as records by a Writer of any snap length and resolution, the
// same bytes read back as written: truncated to the snap length, with
// their original length and timestamp.
func FuzzPcapReader(f *testing.F) {
	var nanos, micros bytes.Buffer
	w, _ := NewWriter(&nanos, 0, true)
	w.WritePacket(hw.Second+5*hw.Nanosecond, bytes.Repeat([]byte{7}, 60))
	w.WritePacket(2*hw.Second, []byte{1, 2, 3})
	w, _ = NewWriter(&micros, 64, false)
	w.WritePacket(3*hw.Microsecond, make([]byte, 100))
	f.Add(nanos.Bytes(), uint16(0), true)
	f.Add(micros.Bytes(), uint16(64), false)
	f.Add(record(nanos.Bytes()[:headerSize], 1<<20, nil), uint16(1), true)
	f.Add([]byte{0xa1, 0xb2, 0xc3, 0xd4}, uint16(9), false)

	f.Fuzz(func(t *testing.T, data []byte, snap uint16, nanos bool) {
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
			limit := uint64(maxRecordLen)
			if r.snaplen != 0 {
				limit = min(limit, uint64(r.snaplen))
			}
			var before, after runtime.MemStats
			for {
				runtime.ReadMemStats(&before)
				p, err := r.Next()
				runtime.ReadMemStats(&after)
				// The slack covers an error value and whatever the
				// fuzzing engine allocates meanwhile.
				if grew := after.TotalAlloc - before.TotalAlloc; grew > limit+1<<16 {
					t.Fatalf("one record allocated %d bytes under a limit of %d", grew, limit)
				}
				if err != nil {
					break
				}
				if uint64(len(p.Data)) > limit {
					t.Fatalf("record of %d bytes under a limit of %d", len(p.Data), limit)
				}
			}
		}

		var buf bytes.Buffer
		w, err := NewWriter(&buf, uint32(snap), nanos)
		if err != nil {
			t.Fatal(err)
		}
		snaplen := int(snap)
		if snaplen == 0 {
			snaplen = 65535
		}
		var want []Packet
		for i, rest := 0, data; len(rest) > 0; i++ {
			n := min(len(rest), 1+int(rest[0]))
			ts := hw.Time(i) * (hw.Second + hw.Microsecond)
			if err := w.WritePacket(ts, rest[:n]); err != nil {
				t.Fatal(err)
			}
			want = append(want, Packet{TS: ts, Data: rest[:min(n, snaplen)], OrigLen: n})
			rest = rest[n:]
		}
		got, err := ReadAll(&buf)
		if err != nil || len(got) != len(want) {
			t.Fatalf("read %d of %d records back, err %v", len(got), len(want), err)
		}
		for i := range got {
			if got[i].TS != want[i].TS || got[i].OrigLen != want[i].OrigLen || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("record %d: read %+v, wrote %+v", i, got[i], want[i])
			}
		}
	})
}
