package hw

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestCountersViews(t *testing.T) {
	var pkts, drops, macTx, idle uint64 = 3, 2, 9, 0
	depth := uint64(5)
	var mac, block, gated Counters
	mac.Add("tx_frames", &macTx)
	gated.Add("offered", &idle)
	block.Add("pkts", &pkts)
	block.AddCounter(Counter{Name: "lost", Ptr: &drops, Kind: QueueDrop})
	block.AddFunc("depth", func() uint64 { return depth })
	block.Include("mac_", &mac, nil)
	block.Include("bg_", &gated, &idle)

	want := map[string]uint64{"pkts": 3, "lost": 2, "depth": 5, "mac_tx_frames": 9}
	if got := block.Map(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Map = %v, want %v", got, want)
	}
	if block.Len() != 5 { // the gated group counts toward capacity
		t.Fatalf("Len = %d", block.Len())
	}
	if got := block.Sum(QueueDrop); got != 2 {
		t.Fatalf("Sum(QueueDrop) = %d", got)
	}

	// Views read live values, and a gate opens as soon as its cell does.
	pkts, depth, idle = 4, 6, 1
	dst := map[string]uint64{}
	block.AddTo(dst, "x.")
	want = map[string]uint64{"x.pkts": 4, "x.lost": 2, "x.depth": 6, "x.mac_tx_frames": 9, "x.bg_offered": 1}
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("AddTo = %v, want %v", dst, want)
	}
}

func TestNameTable(t *testing.T) {
	tbl := NewNameTable("port%d_pkts", 4)
	if tbl.At(0) != "port0_pkts" || tbl.At(3) != "port3_pkts" || tbl.At(17) != "port17_pkts" {
		t.Fatalf("names: %q %q %q", tbl.At(0), tbl.At(3), tbl.At(17))
	}
	if n := testing.AllocsPerRun(100, func() { _ = tbl.At(2) }); n != 0 {
		t.Fatalf("a table hit allocates %v times", n)
	}
}

// spined registers its own counters in place of passthrough's.
type spined struct {
	passthrough
	n    uint64
	ctrs Counters
}

func (m *spined) Counters() *Counters { return &m.ctrs }

func TestDesignStatsViews(t *testing.T) {
	s := sim.New()
	d := NewDesign("t", s.NewClockMHz("clk", 200), 32)
	sp := &spined{passthrough: passthrough{name: "sp", in: NewStream("i", 1), out: NewStream("o", 1)}, n: 7}
	loss := d.NewFrameQueue("q.rxfifo", 1, 0)
	ring := d.NewFrameQueue("ring", 1, 0)
	d.NewFrameQueue("quiet", 1, 0) // owned by no module: exports nothing
	sp.ctrs.AddCounter(Counter{Name: "lost", Ptr: &sp.n, Kind: QueueDrop})
	sp.ctrs.AddCounter(loss.DropCounter("rx_drops", QueueDrop))
	sp.ctrs.AddCounter(ring.DropCounter("ring_drops", Count))
	d.AddModule(sp)
	for _, q := range []*FrameQueue{loss, ring} {
		q.Push(NewFrame(make([]byte, 60), 0))
		q.Push(NewFrame(make([]byte, 60), 0)) // dropped: the queue holds one frame
	}

	// No "sp.moved": spined's own Counters replace the embedded ones.
	// Each queue's drops appear once, under the module that lists them.
	want := map[string]uint64{"sp.lost": 7, "sp.rx_drops": 1, "sp.ring_drops": 1}
	if got := d.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats = %v, want %v", got, want)
	}
	dst := map[string]uint64{}
	d.AddStats(dst, "design.")
	if len(dst) != len(want) || dst["design.sp.lost"] != 7 || dst["design.sp.rx_drops"] != 1 {
		t.Fatalf("AddStats = %v", dst)
	}
	// The module's QueueDrop counters, the loss queue's drop once; the
	// ring's drop is a Count.
	if got := d.Sum(QueueDrop); got != 8 {
		t.Fatalf("Sum(QueueDrop) = %d, want 8", got)
	}
	if got := d.Sum(Count); got != 1 {
		t.Fatalf("Sum(Count) = %d, want 1", got)
	}
}

func TestRegisterFileCounterViews(t *testing.T) {
	var a, b uint64 = 0x1_0000_0002, 7
	var cs Counters
	cs.Add("a", &a)
	cs.Add("b", &b)
	rf := NewRegisterFile("blk")
	var mode uint32
	// Added out of offset order on purpose: the file keeps itself sorted.
	rf.AddCounter32(0x14, cs.List()[1])
	rf.AddVar(0x10, "mode", &mode)
	rf.AddCounters(0x0, cs.List()...)

	if got, want := rf.Names(), []string{"a_lo", "a_hi", "b_lo", "b_hi", "mode", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	for name, off := range map[string]uint32{"a_lo": 0x0, "a_hi": 0x4, "b_lo": 0x8, "b_hi": 0xC, "mode": 0x10, "b": 0x14} {
		if got, ok := rf.OffsetOf(name); !ok || got != off {
			t.Errorf("OffsetOf(%s) = 0x%x, %v; want 0x%x", name, got, ok, off)
		}
	}
	for _, miss := range []string{"a", "a_l", "b_lo_", "_lo", ""} {
		if _, ok := rf.OffsetOf(miss); ok {
			t.Errorf("OffsetOf(%q) resolved", miss)
		}
	}
	read := func(off uint32) uint32 {
		v, err := rf.Read(off)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if read(0x0) != 2 || read(0x4) != 1 || read(0x8) != 7 || read(0xC) != 0 || read(0x14) != 7 {
		t.Fatal("counter registers read wrong")
	}
	b = 9 // registers are views, not copies
	if read(0x8) != 9 || read(0x14) != 9 {
		t.Fatal("counter registers did not follow the counter")
	}
	if err := rf.Write(0x8, 1); err == nil {
		t.Fatal("write to a counter register succeeded")
	}
	if err := rf.Write(0x10, 5); err != nil || mode != 5 {
		t.Fatalf("var write: %v, mode %d", err, mode)
	}
}

func TestRegisterDuplicateNamesPanic(t *testing.T) {
	var v uint64
	for name, add := range map[string]func(rf *RegisterFile){
		"same whole name":      func(rf *RegisterFile) { rf.AddRO(0x20, "x", func() uint32 { return 0 }) },
		"same counter":         func(rf *RegisterFile) { rf.AddCounter64(0x20, "pkts", &v) },
		"whole name of a half": func(rf *RegisterFile) { rf.AddRO(0x20, "pkts_hi", func() uint32 { return 0 }) },
	} {
		t.Run(name, func(t *testing.T) {
			rf := NewRegisterFile("blk")
			rf.AddRO(0x0, "x", func() uint32 { return 0 })
			rf.AddCounter64(0x8, "pkts", &v)
			defer func() {
				if recover() == nil {
					t.Fatal("duplicate name accepted")
				}
			}()
			add(rf)
		})
	}
}
