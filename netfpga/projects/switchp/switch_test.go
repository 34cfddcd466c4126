package switchp

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/netfpga"
	"repro/netfpga/pkt"
)

var (
	hostA = pkt.MustMAC("02:00:00:00:00:0a")
	hostB = pkt.MustMAC("02:00:00:00:00:0b")
	hostC = pkt.MustMAC("02:00:00:00:00:0c")
)

func newDev() *netfpga.Device {
	return netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
}

func build(t *testing.T, cfg Config) (*netfpga.Device, *Project) {
	t.Helper()
	dev := newDev()
	p := New(cfg)
	if err := p.Build(dev); err != nil {
		t.Fatal(err)
	}
	// Plug a cable into every port: an unconnected MAC holds its
	// transmissions until link-up.
	for i := 0; i < dev.Board.Ports; i++ {
		dev.Tap(i)
	}
	return dev, p
}

func ethFrame(dst, src pkt.MAC, tag byte) []byte {
	data, err := pkt.Serialize(pkt.SerializeOptions{},
		&pkt.Ethernet{Dst: dst, Src: src, EtherType: 0x88B5},
		pkt.Payload(bytes.Repeat([]byte{tag}, 50)))
	if err != nil {
		panic(err)
	}
	return data
}

func TestFloodThenLearn(t *testing.T) {
	dev, p := build(t, Config{})
	// A (port 0) -> B: unknown, floods to 1,2,3.
	dev.Tap(0).Send(ethFrame(hostB, hostA, 1))
	dev.RunFor(netfpga.Millisecond)
	for port, want := range map[int]int{0: 0, 1: 1, 2: 1, 3: 1} {
		if got := len(dev.Tap(port).Received()); got != want {
			t.Fatalf("flood: port %d got %d frames, want %d", port, got, want)
		}
	}
	// B (port 1) -> A: A is learned, must go only to port 0.
	dev.Tap(1).Send(ethFrame(hostA, hostB, 2))
	dev.RunFor(netfpga.Millisecond)
	if got := len(dev.Tap(0).Received()); got != 1 {
		t.Fatalf("learned unicast: port 0 got %d", got)
	}
	if dev.Tap(2).Pending()+dev.Tap(3).Pending() != 0 {
		t.Fatal("learned unicast still flooded")
	}
	// A -> B now also unicast (B learned from its reply).
	dev.Tap(0).Send(ethFrame(hostB, hostA, 3))
	dev.RunFor(netfpga.Millisecond)
	if got := len(dev.Tap(1).Received()); got != 1 {
		t.Fatalf("reverse unicast: port 1 got %d", got)
	}
	if p.CAMTable().Len() != 2 {
		t.Fatalf("CAM has %d entries, want 2", p.CAMTable().Len())
	}
}

func TestBroadcastFloods(t *testing.T) {
	dev, _ := build(t, Config{})
	dev.Tap(2).Send(ethFrame(pkt.BroadcastMAC, hostC, 9))
	dev.RunFor(netfpga.Millisecond)
	for _, port := range []int{0, 1, 3} {
		if dev.Tap(port).Pending() != 1 {
			t.Fatalf("broadcast missing on port %d", port)
		}
	}
	if dev.Tap(2).Pending() != 0 {
		t.Fatal("broadcast echoed to ingress")
	}
}

func TestSameSegmentDrop(t *testing.T) {
	dev, _ := build(t, Config{})
	// Learn A and B both on port 0 (a hub hangs off that port).
	dev.Tap(0).Send(ethFrame(hostC, hostA, 1))
	dev.Tap(0).Send(ethFrame(hostC, hostB, 2))
	dev.RunFor(netfpga.Millisecond)
	for i := 0; i < 4; i++ {
		dev.Tap(i).Received() // drain floods
	}
	// A -> B: both on port 0; switch must not forward anywhere.
	dev.Tap(0).Send(ethFrame(hostB, hostA, 3))
	dev.RunFor(netfpga.Millisecond)
	for i := 0; i < 4; i++ {
		if dev.Tap(i).Pending() != 0 {
			t.Fatalf("same-segment frame leaked to port %d", i)
		}
	}
}

func TestStationMove(t *testing.T) {
	dev, p := build(t, Config{})
	dev.Tap(0).Send(ethFrame(hostB, hostA, 1)) // learn A@0
	dev.RunFor(netfpga.Millisecond)
	dev.Tap(3).Send(ethFrame(hostB, hostA, 2)) // A moves to port 3
	dev.RunFor(netfpga.Millisecond)
	for i := 0; i < 4; i++ {
		dev.Tap(i).Received()
	}
	dev.Tap(1).Send(ethFrame(hostA, hostB, 3))
	dev.RunFor(netfpga.Millisecond)
	if dev.Tap(3).Pending() != 1 || dev.Tap(0).Pending() != 0 {
		t.Fatal("station move not followed")
	}
	_ = p
}

func TestAging(t *testing.T) {
	dev, p := build(t, Config{AgeAfter: 10 * netfpga.Millisecond})
	dev.Tap(0).Send(ethFrame(hostB, hostA, 1)) // learn A@0
	dev.RunFor(netfpga.Millisecond)
	if p.CAMTable().Len() != 1 {
		t.Fatal("not learned")
	}
	dev.RunFor(50 * netfpga.Millisecond) // sweeper fires
	if p.CAMTable().Len() != 0 {
		t.Fatalf("entry survived aging: %d", p.CAMTable().Len())
	}
}

func TestCAMCapacityBound(t *testing.T) {
	cam := NewCAM(4, 0)
	for i := 0; i < 10; i++ {
		cam.Learn(pkt.MAC{2, 0, 0, 0, 0, byte(i)}, 0, 0)
	}
	if cam.Len() != 4 {
		t.Fatalf("CAM grew to %d, bound 4", cam.Len())
	}
	if cam.Counters().Map()["failed_learns"] != 6 {
		t.Fatalf("failed learns = %d", cam.Counters().Map()["failed_learns"])
	}
}

// Property: CAM behaves like an ideal map bounded by capacity, with
// multicast/zero sources never learned.
func TestCAMMatchesMapProperty(t *testing.T) {
	type op struct {
		MAC  pkt.MAC
		Port uint8
	}
	f := func(ops []op) bool {
		cam := NewCAM(1024, 0)
		ref := map[pkt.MAC]uint8{}
		now := int64(0)
		for _, o := range ops {
			now++
			cam.Learn(o.MAC, o.Port, now)
			// Capacity is never reached with quick-sized inputs, so the
			// reference is a plain map filtered like the CAM filters.
			if !o.MAC.IsMulticast() && !o.MAC.IsZero() {
				ref[o.MAC] = o.Port
			}
		}
		for m, want := range ref {
			got, ok := cam.Lookup(m, now)
			if !ok || got != want {
				return false
			}
		}
		return cam.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUnifiedSimVsBehavioral(t *testing.T) {
	vectors := []netfpga.TestVector{
		{Port: 0, Data: ethFrame(hostB, hostA, 1), At: 0},
		{Port: 1, Data: ethFrame(hostA, hostB, 2), At: 200 * netfpga.Microsecond},
		{Port: 0, Data: ethFrame(hostB, hostA, 3), At: 400 * netfpga.Microsecond},
		{Port: 2, Data: ethFrame(pkt.BroadcastMAC, hostC, 4), At: 600 * netfpga.Microsecond},
		{Port: 3, Data: ethFrame(hostC, hostB, 5), At: 800 * netfpga.Microsecond},
	}
	if _, _, err := netfpga.RunUnified(newSwitch, newDev, netfpga.TestCase{
		Name: "switch_learning", Vectors: vectors,
	}); err != nil {
		t.Fatal(err)
	}
}

// newSwitch is the default switch as RunUnified builds it, once per
// target.
func newSwitch() netfpga.Project { return New(Config{}) }

// Property: random traffic produces identical sim and twin outputs. Vectors are spaced so learning order is deterministic.
func TestUnifiedEquivalenceProperty(t *testing.T) {
	f := func(seq []struct {
		Src, Dst uint8
		In       uint8
	}) bool {
		if len(seq) > 12 {
			seq = seq[:12]
		}
		macs := []pkt.MAC{hostA, hostB, hostC,
			pkt.MustMAC("02:00:00:00:00:0d")}
		var vectors []netfpga.TestVector
		for i, s := range seq {
			vectors = append(vectors, netfpga.TestVector{
				Port: int(s.In) % 4,
				Data: ethFrame(macs[int(s.Dst)%4], macs[int(s.Src)%4], byte(i)),
				At:   netfpga.Time(i) * 300 * netfpga.Microsecond,
			})
		}
		_, _, err := netfpga.RunUnified(newSwitch, newDev, netfpga.TestCase{
			Name: "switch_random", Vectors: vectors,
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchRegisterCounters(t *testing.T) {
	dev, _ := build(t, Config{})
	dev.Tap(0).Send(ethFrame(hostB, hostA, 1))
	dev.RunFor(netfpga.Millisecond)
	floods, err := dev.Driver.ReadCounter64("switch", "floods")
	if err != nil {
		t.Fatal(err)
	}
	if floods != 1 {
		t.Fatalf("floods = %d", floods)
	}
	entries, err := dev.Driver.RegReadName("switch", "cam_entries")
	if err != nil || entries != 1 {
		t.Fatalf("cam_entries = %d, err %v", entries, err)
	}
}

// TestCAMGrowsToCapacity: the arena starts far below the configured
// bound and grows by doubling; the bound itself is still exact. A table
// grown from small holds exactly capacity learns, rejects the next, and
// finds every address it holds.
func TestCAMGrowsToCapacity(t *testing.T) {
	const capacity = 5000 // not a power of two, well past camStartEntries
	cam := NewCAM(capacity, 0)
	if got := cam.entries.Cap(); got >= capacity {
		t.Fatalf("new CAM reserves %d entries up front, want a small arena", got)
	}
	mac := func(i int) pkt.MAC { return pkt.MAC{2, 0, 0, byte(i >> 16), byte(i >> 8), byte(i)} }
	for i := 0; i < capacity; i++ {
		cam.Learn(mac(i), uint8(i%4), 0)
	}
	if cam.Len() != capacity || cam.Counters().Map()["learns"] != capacity || cam.Counters().Map()["failed_learns"] != 0 {
		t.Fatalf("after %d learns: len %d, stats %v", capacity, cam.Len(), cam.Counters().Map())
	}
	cam.Learn(mac(capacity), 1, 0)
	if cam.Len() != capacity || cam.Counters().Map()["failed_learns"] != 1 {
		t.Fatalf("learn past capacity: len %d, stats %v", cam.Len(), cam.Counters().Map())
	}
	if _, ok := cam.Lookup(mac(capacity), 0); ok {
		t.Fatal("the rejected address resolves")
	}
	for i := 0; i < capacity; i++ {
		if port, ok := cam.Lookup(mac(i), 0); !ok || port != uint8(i%4) {
			t.Fatalf("address %d: port %d, found %v", i, port, ok)
		}
	}
	// Re-learning a held address is a refresh, not a new entry: it must
	// succeed on a full table.
	cam.Learn(mac(7), 3, 0)
	if port, _ := cam.Lookup(mac(7), 0); port != 3 || cam.Counters().Map()["failed_learns"] != 1 {
		t.Fatalf("refresh on a full table: port %d, stats %v", port, cam.Counters().Map())
	}
}

// TestCAMStatsAreFresh: Stats used to return one cached map, so a
// caller holding an earlier result saw it change.
func TestCAMStatsAreFresh(t *testing.T) {
	cam := NewCAM(16, 0)
	cam.Learn(pkt.MustMAC("02:00:00:00:00:01"), 0, 0)
	before := cam.Counters().Map()
	cam.Learn(pkt.MustMAC("02:00:00:00:00:02"), 1, 0)
	if after := cam.Counters().Map(); before["learns"] != 1 || before["entries"] != 1 || after["learns"] != 2 || after["entries"] != 2 {
		t.Fatalf("before %v after %v", before, after)
	}
}
