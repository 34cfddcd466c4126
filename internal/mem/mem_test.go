package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestStoreSparseReadWrite(t *testing.T) {
	s := newStore()
	buf := make([]byte, 100)
	s.read(1<<40, buf) // untouched memory reads zero
	for _, b := range buf {
		if b != 0 {
			t.Fatal("untouched memory not zero")
		}
	}
	data := bytes.Repeat([]byte{0xA5}, 10000) // spans pages
	s.write(pageSize-17, data)
	got := make([]byte, len(data))
	s.read(pageSize-17, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round-trip failed")
	}
}

func TestStoreProperty(t *testing.T) {
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		s := newStore()
		addr := uint64(off)
		s.write(addr, data)
		got := make([]byte, len(data))
		s.read(addr, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSRAMReadWriteRoundTrip(t *testing.T) {
	s := sim.New()
	m := NewSRAM(s, DefaultSUMESRAM("sram0"))
	var got []byte
	m.Write(0x100, []byte{1, 2, 3, 4, 5, 6, 7, 8}, nil)
	m.Read(0x100, 8, func(b []byte) { got = b })
	s.Drain(0)
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("got %v", got)
	}
}

func TestSRAMReadLatency(t *testing.T) {
	s := sim.New()
	cfg := DefaultSUMESRAM("sram0") // 500MHz → 2ns period, latency 3 cycles
	m := NewSRAM(s, cfg)
	var doneAt sim.Time
	m.Read(0, 4, func([]byte) { doneAt = s.Now() })
	s.Drain(0)
	// 1 word = 1ns occupancy + 6ns latency = 7ns
	if doneAt != 7*sim.Nanosecond {
		t.Fatalf("read completed at %v, want 7ns", doneAt)
	}
}

func TestSRAMPortContention(t *testing.T) {
	s := sim.New()
	m := NewSRAM(s, DefaultSUMESRAM("sram0"))
	var last sim.Time
	// 10 single-word reads issued at t=0 serialise on the read port:
	// each occupies 1ns (half of 2ns clock at DDR).
	for i := 0; i < 10; i++ {
		m.Read(uint64(i*4), 4, func([]byte) { last = s.Now() })
	}
	s.Drain(0)
	// 10ns of port occupancy + 6ns pipeline latency.
	if last != 16*sim.Nanosecond {
		t.Fatalf("last read at %v, want 16ns", last)
	}
	if m.Counters().Map()["stall_ps"] == 0 {
		t.Fatal("contention not accounted")
	}
}

func TestSRAMIndependentPorts(t *testing.T) {
	s := sim.New()
	m := NewSRAM(s, DefaultSUMESRAM("sram0"))
	var readDone, writeDone sim.Time
	// Concurrent read and write do not contend (separate QDR ports).
	m.Read(0, 4, func([]byte) { readDone = s.Now() })
	m.Write(64, make([]byte, 4), func() { writeDone = s.Now() })
	s.Drain(0)
	if readDone != 7*sim.Nanosecond {
		t.Fatalf("read at %v", readDone)
	}
	if writeDone != 1*sim.Nanosecond {
		t.Fatalf("write at %v", writeDone)
	}
}

func TestSRAMRandomEqualsSequential(t *testing.T) {
	// The defining QDR property: random access costs the same as
	// sequential.
	run := func(random bool) sim.Time {
		s := sim.New()
		m := NewSRAM(s, DefaultSUMESRAM("s"))
		rng := sim.NewRand(1)
		var last sim.Time
		for i := 0; i < 1000; i++ {
			addr := uint64(i * 4)
			if random {
				addr = uint64(rng.Intn(1<<20)) * 4
			}
			m.Read(addr, 4, func([]byte) { last = s.Now() })
		}
		s.Drain(0)
		return last
	}
	seq, rnd := run(false), run(true)
	if seq != rnd {
		t.Fatalf("sequential %v != random %v", seq, rnd)
	}
}

func TestSRAMOutOfRangePanics(t *testing.T) {
	s := sim.New()
	m := NewSRAM(s, SRAMConfig{Name: "t", Size: 1024, ClockMHz: 500, WordBytes: 4, ReadLatency: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Read(1020, 8, func([]byte) {})
}

func TestDRAMRoundTrip(t *testing.T) {
	s := sim.New()
	d := NewDRAM(s, DefaultSUMEDRAM("dram0"))
	data := bytes.Repeat([]byte{0x5A}, 4096)
	var got []byte
	d.Write(1<<20, data, nil)
	d.Read(1<<20, 4096, func(b []byte) { got = b })
	s.Drain(0)
	if !bytes.Equal(got, data) {
		t.Fatal("DRAM round-trip failed")
	}
}

func TestDRAMRowHitFasterThanMiss(t *testing.T) {
	cfg := DefaultSUMEDRAM("d")
	// Two reads in the same row: second is a row hit.
	s := sim.New()
	d := NewDRAM(s, cfg)
	var t1, t2 sim.Time
	d.Read(0, 64, func([]byte) { t1 = s.Now() })
	d.Read(64, 64, func([]byte) { t2 = s.Now() })
	s.Drain(0)
	hitCost := t2 - t1

	// Two reads in different rows of the same bank: second pays
	// precharge + activate.
	s2 := sim.New()
	d2 := NewDRAM(s2, cfg)
	var u1, u2 sim.Time
	rowStride := uint64(cfg.RowBytes * cfg.Banks) // same bank, next row
	d2.Read(0, 64, func([]byte) { u1 = s2.Now() })
	d2.Read(rowStride, 64, func([]byte) { u2 = s2.Now() })
	s2.Drain(0)
	missCost := u2 - u1

	if missCost <= hitCost {
		t.Fatalf("row miss (%v) not slower than hit (%v)", missCost, hitCost)
	}
	st := d2.Counters().Map()
	if st["row_misses"] != 2 {
		t.Fatalf("row_misses = %d, want 2", st["row_misses"])
	}
}

func TestDRAMBankParallelism(t *testing.T) {
	cfg := DefaultSUMEDRAM("d")
	// Access N different banks: activations overlap, so total time is
	// much less than N serialized row misses.
	s := sim.New()
	d := NewDRAM(s, cfg)
	var last sim.Time
	for b := 0; b < cfg.Banks; b++ {
		d.Read(uint64(b*cfg.RowBytes), 64, func([]byte) { last = s.Now() })
	}
	s.Drain(0)
	serial := sim.Time(cfg.Banks) * (cfg.TRCD + cfg.TCL)
	if last >= serial {
		t.Fatalf("bank-parallel access (%v) no faster than serial (%v)", last, serial)
	}
}

func TestDRAMRefreshOccurs(t *testing.T) {
	s := sim.New()
	d := NewDRAM(s, DefaultSUMEDRAM("d"))
	// Issue accesses over 100us: ~12 refresh intervals must elapse.
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * sim.Microsecond
		s.At(at, func() { d.Read(0, 64, func([]byte) {}) })
	}
	s.Drain(0)
	if d.Counters().Map()["refreshes"] < 10 {
		t.Fatalf("refreshes = %d, want >= 10", d.Counters().Map()["refreshes"])
	}
}

func TestDRAMSequentialBeatsRandom(t *testing.T) {
	// The defining DRAM property: sequential streaming beats random
	// 64-byte accesses.
	run := func(random bool) sim.Time {
		s := sim.New()
		d := NewDRAM(s, DefaultSUMEDRAM("d"))
		rng := sim.NewRand(42)
		var last sim.Time
		for i := 0; i < 2000; i++ {
			addr := uint64(i * 64)
			if random {
				addr = uint64(rng.Intn(1<<26)) &^ 63
			}
			d.Read(addr, 64, func([]byte) { last = s.Now() })
		}
		s.Drain(0)
		return last
	}
	seq, rnd := run(false), run(true)
	// The activation-window limit (tRRD/tFAW) makes random small reads
	// markedly slower than row-hit streaming.
	if float64(rnd) < float64(seq)*1.3 {
		t.Fatalf("random (%v) should be >=1.3x slower than sequential (%v)", rnd, seq)
	}
}

func TestPeakBandwidths(t *testing.T) {
	s := sim.New()
	sram := NewSRAM(s, DefaultSUMESRAM("s"))
	dram := NewDRAM(s, DefaultSUMEDRAM("d"))
	// QDRII+ 500MHz x 4B x 2 edges = 32 Gb/s per direction.
	if g := sram.PeakBandwidthGbps(); g < 31 || g > 33 {
		t.Fatalf("SRAM peak %v Gb/s", g)
	}
	// DDR3-1866 x 64-bit = ~119 Gb/s.
	if g := dram.PeakBandwidthGbps(); g < 118 || g > 121 {
		t.Fatalf("DRAM peak %v Gb/s", g)
	}
}

// Property: interleaved writes then read-back returns the last write per
// location for both memory models.
func TestMemoryCoherenceProperty(t *testing.T) {
	f := func(writes []struct {
		Off  uint16
		Data [8]byte
	}) bool {
		s := sim.New()
		mems := []Memory{
			NewSRAM(s, DefaultSUMESRAM("s")),
			NewDRAM(s, DefaultSUMEDRAM("d")),
		}
		shadow := make(map[uint64][8]byte)
		for _, m := range mems {
			for _, w := range writes {
				addr := uint64(w.Off) &^ 7
				m.Write(addr, w.Data[:], nil)
			}
		}
		for _, w := range writes {
			shadow[uint64(w.Off)&^7] = w.Data
		}
		s.Drain(0) // let all writes land before reading back
		ok := true
		for _, m := range mems {
			for addr, want := range shadow {
				addr, want := addr, want
				m.Read(addr, 8, func(b []byte) {
					if !bytes.Equal(b, want[:]) {
						ok = false
					}
				})
			}
		}
		s.Drain(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
