package host

import (
	"testing"

	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/netfpga/hw"
)

// sink is a design module that consumes the to-device queue as a DMA
// attach does, and leaves the frames there for the test to pop.
type sink struct{}

func (sink) Name() string            { return "sink" }
func (sink) Tick() bool              { return false }
func (sink) Resources() hw.Resources { return hw.Resources{} }

// consumed wires e's to-device queue to a sink on a design of s's, so
// its driver may send.
func consumed(s *sim.Sim, e *pcie.Engine) *pcie.Engine {
	d := hw.NewDesign("host_test", s.NewClockMHz("datapath", 200), 0)
	d.AddModule(sink{})
	d.Consume(sink{}, e.ToDevice())
	return e
}

func newHost(t *testing.T) (*sim.Sim, *pcie.Engine, *Driver) {
	t.Helper()
	s := sim.New()
	e := consumed(s, pcie.NewEngine(s, pcie.EngineConfig{Link: pcie.SUMELink()}))
	regs := hw.NewAddressMap()
	rf := hw.NewRegisterFile("core")
	var scratch uint32
	rf.AddVar(0x0, "scratch", &scratch)
	var pkts uint64 = 77
	rf.AddCounter64(0x8, "pkts", &pkts)
	regs.Mount(0x0000, 0x100, rf)
	d := NewDriver("nf0", e, regs, nil, s.Now)
	return s, e, d
}

func TestDriverSendReachesDevice(t *testing.T) {
	s, e, d := newHost(t)
	if err := d.Send(make([]byte, 200), 2); err != nil {
		t.Fatal(err)
	}
	s.Drain(0)
	f := e.ToDevice().Pop()
	if f == nil {
		t.Fatal("no frame at device")
	}
	if f.Meta.SrcPort != hw.HostPortBase+2 || f.Meta.Flags&hw.FlagFromHost == 0 {
		t.Fatalf("meta %+v", f.Meta)
	}
}

func TestDriverSendValidation(t *testing.T) {
	_, _, d := newHost(t)
	if err := d.Send(nil, 0); err != ErrFrameSize {
		t.Fatalf("err = %v", err)
	}
	if err := d.Send(make([]byte, 10000), 0); err != ErrFrameSize {
		t.Fatalf("err = %v", err)
	}
	for _, q := range []int{-1, hw.MaxHostPorts} {
		if err := d.Send(make([]byte, 60), q); err != ErrQueue {
			t.Fatalf("queue %d: err = %v", q, err)
		}
	}
}

// TestDriverSendNeedsDMAConsumer: on a design with no DMA attach
// nothing would take a frame off the to-device queue, so Send refuses
// before it builds one.
func TestDriverSendNeedsDMAConsumer(t *testing.T) {
	s := sim.New()
	e := pcie.NewEngine(s, pcie.EngineConfig{Link: pcie.SUMELink()})
	d := NewDriver("nf0", e, hw.NewAddressMap(), nil, s.Now)
	data := make([]byte, 60)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := d.Send(data, 0); err != ErrNoDMA {
			t.Fatalf("err = %v, want ErrNoDMA", err)
		}
	}); allocs != 0 {
		t.Errorf("a Send refused for want of a consumer allocates %.1f times", allocs)
	}
	if d.txSent != 0 || e.TxSpace() != 256 {
		t.Fatalf("a refused send counted %d sent and left %d of 256 ring slots", d.txSent, e.TxSpace())
	}
}

func TestDriverSendCopies(t *testing.T) {
	s, e, d := newHost(t)
	buf := []byte{1, 2, 3, 4}
	d.Send(buf, 0)
	buf[0] = 99 // caller reuses buffer immediately
	s.Drain(0)
	f := e.ToDevice().Pop()
	if f.Data[0] != 1 {
		t.Fatal("driver did not copy the frame")
	}
}

func TestDriverReceiveAndQueueDemux(t *testing.T) {
	s, e, d := newHost(t)
	f := hw.NewFrame([]byte{9, 9}, 3)
	f.Meta.DstPorts = hw.HostPortMask(1)
	e.FromDevice().Push(f)
	s.Drain(0)
	got := d.Poll()
	if len(got) != 1 {
		t.Fatalf("polled %d", len(got))
	}
	if got[0].Queue != 1 || got[0].Port != 3 || got[0].At == 0 {
		t.Fatalf("rx %+v", got[0])
	}
	if len(d.Poll()) != 0 {
		t.Fatal("Poll did not drain")
	}
}

func TestDriverReplenishesRxRing(t *testing.T) {
	s, e, d := newHost(t)
	// Push far more frames than the initial 256 descriptors; the driver
	// re-posts in rxComplete so all must arrive.
	for i := 0; i < 300; i++ {
		f := hw.NewFrame(make([]byte, 60), 0)
		f.Meta.DstPorts = hw.HostPortMask(0)
		e.FromDevice().Push(f)
		if i%64 == 0 {
			s.RunFor(10 * sim.Microsecond)
		}
	}
	s.Drain(0)
	if n := len(d.Poll()); n != 300 {
		t.Fatalf("received %d of 300", n)
	}
}

// TestDriverPollLends: Poll lends what it returns until the next Poll,
// and the round after the next collects into the buffers it lent
// (TestDriverSteadyLoopAllocatesNothing counts what that saves).
func TestDriverPollLends(t *testing.T) {
	s, e, d := newHost(t)
	round := func(tag byte) []RxPacket {
		for i := 0; i < 100; i++ {
			f := hw.NewFrame([]byte{tag, tag}, 0)
			f.Meta.DstPorts = hw.HostPortMask(0)
			e.FromDevice().Push(f)
		}
		s.Drain(0)
		return d.Poll()
	}
	first := round(1)
	second := round(2)
	if len(first) != 100 || len(second) != 100 {
		t.Fatalf("polled %d and %d, want 100 each", len(first), len(second))
	}
	for i, p := range second {
		if p.Data[0] != 2 || p.Data[1] != 2 {
			t.Fatalf("the second round's packet %d reads %v", i, p.Data)
		}
	}
	if third := round(3); &third[0] != &first[0] || &third[0].Data[0] != &first[0].Data[0] {
		t.Fatal("the third round did not collect into the buffers the first lent")
	}
	if d.Poll() != nil {
		t.Fatal("an empty round did not poll nil")
	}
}

// TestDriverOverLimitRecyclesFrames: a frame the driver drops past its
// receive limit goes back to the pool, so once the driver is over its
// limit a Send → loop back → DMA → drop round allocates nothing.
func TestDriverOverLimitRecyclesFrames(t *testing.T) {
	s := sim.New()
	e := consumed(s, pcie.NewEngine(s, pcie.EngineConfig{Link: pcie.SUMELink()}))
	pool := &hw.FramePool{}
	d := NewDriver("nf0", e, hw.NewAddressMap(), pool, s.Now)
	d.rxLimit = 1
	data := make([]byte, 1500)
	round := func() {
		if err := d.Send(data, 0); err != nil {
			t.Fatal(err)
		}
		s.Drain(0)
		f := e.ToDevice().Pop()
		f.Meta.DstPorts = hw.HostPortMask(0)
		e.FromDevice().Push(f)
		s.Drain(0)
	}
	for i := 0; i < 4; i++ { // fill the limit, then warm the pool
		round()
	}
	if len(d.rxBuf) != 1 || d.rxDropped != 3 {
		t.Fatalf("pending %d, dropped %d: want 1 and 3", len(d.rxBuf), d.rxDropped)
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a round dropped past the receive limit allocates %.1f times", allocs)
	}
}

func TestDriverRegisterAccess(t *testing.T) {
	_, _, d := newHost(t)
	if err := d.RegWriteName("core", "scratch", 0xABCD); err != nil {
		t.Fatal(err)
	}
	v, err := d.RegReadName("core", "scratch")
	if err != nil || v != 0xABCD {
		t.Fatalf("v=%x err=%v", v, err)
	}
	if _, err := d.RegReadName("core", "bogus"); err == nil {
		t.Fatal("read of unknown register succeeded")
	}
	if _, err := d.regs.Read(0x9000); err == nil {
		t.Fatal("read of unmapped address succeeded")
	}
	c, err := d.ReadCounter64("core", "pkts")
	if err != nil || c != 77 {
		t.Fatalf("counter=%d err=%v", c, err)
	}
}

func TestDriverTxRingFull(t *testing.T) {
	s := sim.New()
	e := consumed(s, pcie.NewEngine(s, pcie.EngineConfig{Link: pcie.SUMELink(), TxRing: 2}))
	d := NewDriver("nf0", e, hw.NewAddressMap(), nil, s.Now)
	if err := d.Send(make([]byte, 60), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Send(make([]byte, 60), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Send(make([]byte, 60), 0); err != ErrTxRingFull {
		t.Fatalf("err = %v", err)
	}
}

// TestDriverSendAllocations pins the transmit path's garbage: a refused
// Send builds nothing (pump loops call Send until it refuses), and an
// accepted one draws its frame from the pool the datapath recycles into.
func TestDriverSendAllocations(t *testing.T) {
	s := sim.New()
	e := consumed(s, pcie.NewEngine(s, pcie.EngineConfig{Link: pcie.SUMELink(), TxRing: 8}))
	pool := &hw.FramePool{}
	d := NewDriver("nf0", e, hw.NewAddressMap(), pool, s.Now)
	data := make([]byte, 1500)
	// One accepted send per run, the device side recycling what arrives:
	// after the first rounds every frame comes back out of the pool.
	cycle := func() {
		if err := d.Send(data, 0); err != nil {
			t.Fatal(err)
		}
		s.Drain(0)
		pool.Put(e.ToDevice().Pop())
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("an accepted Send on a warm pool allocates %.1f times", allocs)
	}
	// No pool behind the refusal, so building a frame only to throw it
	// away would show as an allocation.
	d = NewDriver("nf1", e, hw.NewAddressMap(), nil, s.Now)
	for d.Send(data, 0) == nil {
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := d.Send(data, 0); err != ErrTxRingFull {
			t.Fatalf("err = %v, want ErrTxRingFull", err)
		}
	}); allocs != 0 {
		t.Errorf("a Send refused by a full ring allocates %.1f times", allocs)
	}
}

// TestDriverSteadyLoopAllocatesNothing: a steady send → run → poll loop,
// every frame the host sends looped back to it, allocates nothing per
// frame once the pool and the lent buffers are warm.
func TestDriverSteadyLoopAllocatesNothing(t *testing.T) {
	s := sim.New()
	e := consumed(s, pcie.NewEngine(s, pcie.EngineConfig{Link: pcie.SUMELink()}))
	pool := &hw.FramePool{}
	d := NewDriver("nf0", e, hw.NewAddressMap(), pool, s.Now)
	data := make([]byte, 600)
	const frames = 32
	round := func() {
		for i := 0; i < frames; i++ {
			if err := d.Send(data, i%4); err != nil {
				t.Fatal(err)
			}
		}
		s.Drain(0)
		for e.ToDevice().Len() > 0 {
			f := e.ToDevice().Pop()
			f.Meta.DstPorts = hw.HostPortMask(int(f.Meta.SrcPort) - hw.HostPortBase)
			e.FromDevice().Push(f)
		}
		s.Drain(0)
		if rx := d.Poll(); len(rx) != frames {
			t.Fatalf("polled %d of %d", len(rx), frames)
		}
	}
	for i := 0; i < 4; i++ { // warm the pool and both rounds' buffers
		round()
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("%.2f allocations per round of %d frames, want none", allocs, frames)
	}
}
