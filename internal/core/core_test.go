package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/netfpga/hw"
)

func TestBoardSpecs(t *testing.T) {
	for _, b := range Boards() {
		if b.Ports <= 0 || b.Ports > hw.MaxPorts {
			t.Errorf("%s: bad port count %d", b.Name, b.Ports)
		}
		if b.PortRate(0) <= 0 {
			t.Errorf("%s: bad port rate", b.Name)
		}
		if b.BusBytes <= 0 || b.ClockMHz <= 0 {
			t.Errorf("%s: bad datapath params", b.Name)
		}
		if b.FPGA.Capacity.LUTs == 0 {
			t.Errorf("%s: empty FPGA capacity", b.Name)
		}
	}
	if SUME().TotalPortGbps() < 39.9 || SUME().TotalPortGbps() > 40.1 {
		t.Errorf("SUME aggregate = %v", SUME().TotalPortGbps())
	}
	if SUME100G().TotalPortGbps() < 99 || SUME100G().TotalPortGbps() > 101 {
		t.Errorf("SUME100G aggregate = %v", SUME100G().TotalPortGbps())
	}
}

func TestDeviceInstantiation(t *testing.T) {
	dev := NewDevice(SUME(), Options{})
	if len(dev.MACs) != 4 {
		t.Fatalf("%d MACs", len(dev.MACs))
	}
	if dev.Engine == nil || dev.Driver == nil {
		t.Fatal("host interface missing")
	}
	if len(dev.SRAMs) != 3 || len(dev.DRAMs) != 2 || len(dev.Disks) != 3 {
		t.Fatalf("memory/storage counts wrong: %d/%d/%d",
			len(dev.SRAMs), len(dev.DRAMs), len(dev.Disks))
	}
	if dev.Dsn.BusBytes() != 32 {
		t.Fatalf("bus = %d", dev.Dsn.BusBytes())
	}
}

func TestDeviceNoHost(t *testing.T) {
	dev := NewDevice(SUME(), Options{NoHost: true})
	if dev.Engine != nil || dev.Driver != nil {
		t.Fatal("NoHost device still has a host interface")
	}
}

func TestDeviceOptionOverrides(t *testing.T) {
	dev := NewDevice(SUME(), Options{BusBytes: 64, ClockMHz: 300})
	if dev.Dsn.BusBytes() != 64 {
		t.Fatal("bus override ignored")
	}
	if f := dev.Clock.FreqMHz(); f < 299 || f > 301 {
		t.Fatalf("clock override ignored: %v MHz", f)
	}
}

func TestMountRegsSequential(t *testing.T) {
	dev := NewDevice(SUME(), Options{NoHost: true})
	a := hw.NewRegisterFile("a")
	var v uint32
	a.AddVar(0, "x", &v)
	b := hw.NewRegisterFile("b")
	b.AddVar(0, "x", &v)
	baseA := dev.MountRegs(a)
	baseB := dev.MountRegs(b)
	if baseB != baseA+0x1000 {
		t.Fatalf("mounts not sequential: 0x%x 0x%x", baseA, baseB)
	}
	if err := dev.Regs.Write(baseB, 7); err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatal("write did not land")
	}
}

func TestTapSendReceive(t *testing.T) {
	dev := NewDevice(SUME(), Options{})
	tap := dev.Tap(0)
	if dev.Tap(0) != tap {
		t.Fatal("Tap not idempotent")
	}
	// Loop the device MAC's rx straight back to tx.
	dev.MACs[0].SetReceiver(func(f *hw.Frame, ok bool) {
		if ok {
			dev.MACs[0].Send(f)
		}
	})
	buf := []byte{1, 2, 3, 4}
	if !tap.Send(buf) {
		t.Fatal("send failed")
	}
	buf[0] = 99 // tap must have copied
	dev.RunFor(sim.Millisecond)
	rx := tap.Received()
	if len(rx) != 1 {
		t.Fatalf("got %d frames", len(rx))
	}
	if rx[0].Data[0] != 1 {
		t.Fatal("tap did not copy on send")
	}
	if rx[0].At == 0 {
		t.Fatal("missing arrival time")
	}
	if tap.Pending() != 0 {
		t.Fatal("Received did not drain")
	}
}

func TestTapSendAt(t *testing.T) {
	dev := NewDevice(SUME(), Options{})
	tap := dev.Tap(1)
	dev.MACs[1].SetReceiver(func(f *hw.Frame, ok bool) { dev.MACs[1].Send(f) })
	tap.SendAt(500*sim.Microsecond, []byte{9})
	dev.RunFor(100 * sim.Microsecond)
	if tap.Pending() != 0 {
		t.Fatal("frame arrived before schedule")
	}
	dev.RunFor(sim.Millisecond)
	if tap.Pending() != 1 {
		t.Fatal("scheduled frame never arrived")
	}
}

func TestTapOnRxIntercepts(t *testing.T) {
	dev := NewDevice(SUME(), Options{})
	tap := dev.Tap(2)
	dev.MACs[2].SetReceiver(func(f *hw.Frame, ok bool) { dev.MACs[2].Send(f) })
	var got int
	tap.OnRx = func(f *hw.Frame, at sim.Time) { got++ }
	tap.Send([]byte{1})
	dev.RunFor(sim.Millisecond)
	if got != 1 {
		t.Fatal("OnRx not called")
	}
	if tap.Pending() != 0 {
		t.Fatal("OnRx frames must not buffer")
	}
}

// TestOnRxBetweenRunsOnAnEdge: OnRx set between runs takes effect when
// the next run starts, whatever is pending toward the tap: here a
// 60-byte frame whose end and arrival both fall on datapath edges, with
// the next run starting less than a period before one of them. It is
// received once, at its arrival instant.
func TestOnRxBetweenRunsOnAnEdge(t *testing.T) {
	for _, stop := range []sim.Time{-sim.Nanosecond, sim.Nanosecond} { // before the frame ends; after
		dev := NewDevice(SUME(), Options{})
		tap := dev.Tap(1)
		period := dev.Clock.Period()
		wire := sim.BitTime(84*8, dev.Board.PortRate(1))
		dev.RunFor(10*period + period - wire%period) // the frame ends on an edge
		end := dev.Now() + wire
		arrival := end + 5*sim.Nanosecond
		if end%period != 0 || arrival%period != 0 {
			t.Fatalf("end %v, arrival %v: not on %v edges", end, arrival, period)
		}
		dev.MACs[1].Send(hw.NewFrame(make([]byte, 60), 0))
		dev.RunFor(wire + stop)
		var got []sim.Time
		tap.OnRx = func(f *hw.Frame, at sim.Time) {
			if at != dev.Now() {
				t.Errorf("OnRx at %v for a frame that arrived at %v", dev.Now(), at)
			}
			got = append(got, at)
		}
		dev.RunFor(sim.Microsecond)
		if len(got) != 1 || got[0] != arrival || tap.Pending() != 0 {
			t.Fatalf("stopped at %v: OnRx got %v, %d captured; want one at %v", end+stop, got, tap.Pending(), arrival)
		}
	}
}

// TestOnRxInsideARunIsRefused: OnRx set from an event inside a run
// takes effect at the next run, so a frame that reaches the tap before
// then cannot be handed to it at its arrival: the tap panics.
func TestOnRxInsideARunIsRefused(t *testing.T) {
	dev := NewDevice(SUME(), Options{})
	tap := dev.Tap(1)
	dev.MACs[1].Send(hw.NewFrame(make([]byte, 60), 0))
	dev.Sim.At(10*sim.Nanosecond, func() {
		tap.OnRx = func(f *hw.Frame, at sim.Time) { t.Error("OnRx ran inside the run that set it") }
	})
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "set it between runs") {
			t.Fatalf("panic %q, want the tap's refusal", msg)
		}
	}()
	dev.RunFor(sim.Microsecond)
}

func TestTapOutOfRangePanics(t *testing.T) {
	dev := NewDevice(SUME(), Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	dev.Tap(7)
}

func TestEveryPeriodicAgent(t *testing.T) {
	dev := NewDevice(SUME(), Options{NoHost: true})
	n := 0
	dev.Every(100*sim.Microsecond, func() { n++ })
	dev.RunFor(sim.Millisecond)
	if n != 10 {
		t.Fatalf("agent ran %d times, want 10", n)
	}
}

func TestEveryInvalidIntervalPanics(t *testing.T) {
	dev := NewDevice(SUME(), Options{NoHost: true})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	dev.Every(0, func() {})
}

type testAgent struct{ started *bool }

func (a testAgent) Name() string    { return "t" }
func (a testAgent) Start(d *Device) { *a.started = true }

func TestAddAgentStarts(t *testing.T) {
	dev := NewDevice(SUME(), Options{NoHost: true})
	started := false
	dev.AddAgent(testAgent{started: &started})
	if !started {
		t.Fatal("agent not started")
	}
}

func TestSnapshot(t *testing.T) {
	dev := NewDevice(SUME(), Options{})
	tap := dev.Tap(0)
	dev.MACs[0].SetReceiver(func(f *hw.Frame, ok bool) {
		if ok {
			dev.MACs[0].Send(f)
		}
	})
	for i := 0; i < 10; i++ {
		tap.Send(make([]byte, 400))
	}
	dev.RunFor(sim.Millisecond)

	snap := dev.Snapshot()
	if snap["port0.rx_frames"] != 10 {
		t.Errorf("port0.rx_frames = %d, want 10", snap["port0.rx_frames"])
	}
	if snap["sim.events"] == 0 || snap["sim.events"] != dev.Sim.Executed() {
		t.Errorf("sim.events = %d, want %d", snap["sim.events"], dev.Sim.Executed())
	}
	// The snapshot must be immutable: more traffic must not mutate it.
	before := snap["port0.rx_frames"]
	tap.Send(make([]byte, 400))
	dev.RunFor(sim.Millisecond)
	if snap["port0.rx_frames"] != before {
		t.Error("snapshot aliased live counters")
	}
	if dev.Snapshot()["port0.rx_frames"] != before+1 {
		t.Error("fresh snapshot missed new traffic")
	}
	// Host-less devices omit the pcie/host sections entirely.
	for k := range NewDevice(SUME(), Options{NoHost: true}).Snapshot() {
		if strings.HasPrefix(k, "pcie.") || strings.HasPrefix(k, "host.") {
			t.Errorf("NoHost snapshot has %s", k)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []sim.Time {
		dev := NewDevice(SUME(), Options{Seed: 1, PortBER: 1e-5})
		tap := dev.Tap(0)
		dev.MACs[0].SetReceiver(func(f *hw.Frame, ok bool) {
			if ok {
				dev.MACs[0].Send(f)
			}
		})
		for i := 0; i < 50; i++ {
			tap.Send(make([]byte, 400))
		}
		dev.RunFor(sim.Millisecond)
		var times []sim.Time
		for _, rx := range tap.Received() {
			times = append(times, rx.At)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic delivery count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic timing at %d", i)
		}
	}
}

// stalled is a DMA consumer that never pops.
type stalled struct{}

func (stalled) Name() string            { return "stalled" }
func (stalled) Tick() bool              { return false }
func (stalled) Resources() hw.Resources { return hw.Resources{} }

// TestStalledDeviceRecyclesHostFrames: a host→device DMA that completes
// into a full dma.to_device queue is dropped, and its frame goes back
// to the design's pool. So once a device stalls — here its one DMA
// consumer never pops the queue — a further host burst allocates no
// frames.
func TestStalledDeviceRecyclesHostFrames(t *testing.T) {
	dev := NewDevice(SUME(), Options{})
	dev.Dsn.AddModule(stalled{})
	dev.Dsn.Consume(stalled{}, dev.Engine.ToDevice())
	data := make([]byte, 100)
	burst := func() {
		for dev.Driver.Send(data, 0) == nil {
		}
		dev.RunFor(10 * sim.Microsecond)
	}
	burst() // fills dma.to_device, which nothing pops
	if allocs := testing.AllocsPerRun(5, burst); allocs != 0 {
		t.Errorf("a host burst into a stalled device allocated %v times, want 0", allocs)
	}
	if drops := *dev.Engine.ToDevice().DropCounter("", hw.Count).Ptr; drops == 0 {
		t.Fatal("the stalled device's queue refused no frame")
	}
}
