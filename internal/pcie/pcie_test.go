package pcie

import (
	"testing"

	"repro/internal/sim"
	"repro/netfpga/hw"
)

func TestLinkRates(t *testing.T) {
	s := sim.New()
	g3 := NewLink(s, LinkConfig{Gen: Gen3, Lanes: 8})
	g2 := NewLink(s, LinkConfig{Gen: Gen2, Lanes: 8})
	g1 := NewLink(s, LinkConfig{Gen: Gen1, Lanes: 8})
	if r := g3.rate; r < 62 || r > 64 {
		t.Fatalf("Gen3 x8 = %v Gb/s", r)
	}
	if r := g2.rate; r != 32 {
		t.Fatalf("Gen2 x8 = %v Gb/s", r)
	}
	if r := g1.rate; r != 16 {
		t.Fatalf("Gen1 x8 = %v Gb/s", r)
	}
}

func TestTransferTiming(t *testing.T) {
	s := sim.New()
	l := NewLink(s, LinkConfig{Gen: Gen3, Lanes: 8, Latency: 500 * sim.Nanosecond})
	var done sim.Time
	l.transfer(HostToDevice, 256, arrival{fn: func(*hw.Frame) { done = s.Now() }})
	s.Drain(0)
	// 256B + 1 TLP overhead (26B) = 282B at 63.01 Gb/s ≈ 35.8ns + 500ns.
	want := sim.BitTime(282*8, 8.0*128/130*8) + 500*sim.Nanosecond
	if done != want {
		t.Fatalf("done at %v, want %v", done, want)
	}
}

func TestTransferSerializationPerDirection(t *testing.T) {
	s := sim.New()
	l := NewLink(s, LinkConfig{Gen: Gen3, Lanes: 8})
	var t1, t2, t3 sim.Time
	l.transfer(HostToDevice, 4096, arrival{fn: func(*hw.Frame) { t1 = s.Now() }})
	l.transfer(HostToDevice, 4096, arrival{fn: func(*hw.Frame) { t2 = s.Now() }})
	l.transfer(DeviceToHost, 4096, arrival{fn: func(*hw.Frame) { t3 = s.Now() }})
	s.Drain(0)
	if t2 <= t1 {
		t.Fatal("same-direction transfers did not serialise")
	}
	if t3 != t1 {
		t.Fatalf("opposite directions should not contend: %v vs %v", t3, t1)
	}
}

func TestTLPOverheadShape(t *testing.T) {
	// Many small transfers must be slower than one large transfer of the
	// same total size (per-TLP overhead).
	run := func(chunk int) sim.Time {
		s := sim.New()
		l := NewLink(s, LinkConfig{Gen: Gen3, Lanes: 8, Latency: 1})
		var last sim.Time
		total := 1 << 20
		for off := 0; off < total; off += chunk {
			l.transfer(HostToDevice, chunk, arrival{fn: func(*hw.Frame) { last = s.Now() }})
		}
		s.Drain(0)
		return last
	}
	small, large := run(64), run(4096)
	if float64(small) < 1.2*float64(large) {
		t.Fatalf("64B chunks (%v) should be much slower than 4KB chunks (%v)", small, large)
	}
}

func newEngine(t *testing.T) (*sim.Sim, *Engine) {
	t.Helper()
	s := sim.New()
	return s, NewEngine(s, EngineConfig{Link: SUMELink()})
}

func TestEngineHostToDevice(t *testing.T) {
	s, e := newEngine(t)
	f := hw.NewFrame(make([]byte, 1000), hw.HostPortBase)
	if !e.HostSend(f) {
		t.Fatal("HostSend failed")
	}
	s.Drain(0)
	if e.ToDevice().Len() != 1 {
		t.Fatal("frame did not reach device queue")
	}
	if got := e.ToDevice().Pop(); got != f {
		t.Fatal("wrong frame")
	}
}

func TestEngineTxRingBackpressure(t *testing.T) {
	s := sim.New()
	e := NewEngine(s, EngineConfig{Link: SUMELink(), TxRing: 4})
	sent := 0
	for i := 0; i < 10; i++ {
		if e.HostSend(hw.NewFrame(make([]byte, 100), hw.HostPortBase)) {
			sent++
		}
	}
	if sent != 4 {
		t.Fatalf("sent %d, want 4 (ring bound)", sent)
	}
	s.Drain(0)
	if e.TxSpace() != 4 {
		t.Fatal("ring did not drain")
	}
	if !e.HostSend(hw.NewFrame(make([]byte, 100), hw.HostPortBase)) {
		t.Fatal("send after drain failed")
	}
}

func TestEngineDeviceToHost(t *testing.T) {
	s, e := newEngine(t)
	var got []*hw.Frame
	e.SetDeliver(func(f *hw.Frame) { got = append(got, f) })
	e.PostRx(16)
	for i := 0; i < 3; i++ {
		f := hw.NewFrame(make([]byte, 500), 1)
		f.Meta.DstPorts = hw.HostPortMask(0)
		e.FromDevice().Push(f)
	}
	s.Drain(0)
	if len(got) != 3 {
		t.Fatalf("delivered %d frames", len(got))
	}
	if e.rxFree != 13 {
		t.Fatalf("rxFree = %d, want 13", e.rxFree)
	}
}

func TestEngineRxStallsWithoutBuffers(t *testing.T) {
	s, e := newEngine(t)
	n := 0
	e.SetDeliver(func(*hw.Frame) { n++ })
	// No PostRx: frames wait in fromDevice.
	e.FromDevice().Push(hw.NewFrame(make([]byte, 100), 0))
	s.Drain(0)
	if n != 0 {
		t.Fatal("frame delivered without posted buffer")
	}
	e.PostRx(1)
	s.Drain(0)
	if n != 1 {
		t.Fatal("frame not delivered after PostRx")
	}
	if e.Stats()["rx_deferred"] == 0 {
		t.Fatal("deferral not counted")
	}
}

func TestGen3FasterThanGen2(t *testing.T) {
	run := func(gen Gen) sim.Time {
		s := sim.New()
		e := NewEngine(s, EngineConfig{Link: LinkConfig{Gen: gen, Lanes: 8, Latency: 1}})
		var last sim.Time
		e.SetDeliver(func(*hw.Frame) { last = s.Now() })
		e.PostRx(1 << 16)
		for i := 0; i < 1000; i++ {
			e.FromDevice().Push(hw.NewFrame(make([]byte, 1500), 0))
		}
		s.Drain(0)
		return last
	}
	g2, g3 := run(Gen2), run(Gen3)
	ratio := float64(g2) / float64(g3)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("Gen2/Gen3 time ratio = %.2f, want ~2", ratio)
	}
}
