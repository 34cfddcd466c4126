package lib

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/netfpga/hw"
)

func buildRefDevice(t *testing.T, cfg PipelineConfig) (*core.Device, *Pipeline) {
	t.Helper()
	dev := core.NewDevice(core.SUME(), core.Options{})
	p, err := BuildReference(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dev.Board.Ports; i++ {
		dev.Tap(i)
	}
	return dev, p
}

func echoLookup(f *hw.Frame) Verdict {
	if f.Meta.Flags&hw.FlagFromCPU != 0 && f.Meta.DstPorts != 0 {
		return Forward
	}
	f.Meta.DstPorts = hw.PortMask(int(f.Meta.SrcPort))
	return Forward
}

func TestBuildReferenceBasic(t *testing.T) {
	dev, p := buildRefDevice(t, PipelineConfig{
		Stages: []Stage{Lookup("echo", echoLookup, 1, hw.Resources{})},
	})
	if len(p.Attach) != 4 || p.Arbiter == nil || p.OQ == nil {
		t.Fatal("pipeline incomplete")
	}
	if p.DMA != nil || p.CPUPunt != nil {
		t.Fatal("unrequested stages present")
	}
	dev.Tap(1).Send(make([]byte, 100))
	dev.RunFor(sim.Millisecond)
	if dev.Tap(1).Pending() != 1 {
		t.Fatal("echo through reference pipeline failed")
	}
}

// passMod moves beats from in to out unchanged, counting frames.
type passMod struct {
	in, out *hw.Stream
	frames  int
}

func (m *passMod) Name() string            { return "pass" }
func (m *passMod) Resources() hw.Resources { return hw.Resources{} }
func (m *passMod) Tick() bool {
	if !m.in.CanPop() || !m.out.CanPush() {
		return m.in.CanPop()
	}
	b := m.in.Pop()
	if b.Last {
		m.frames++
	}
	m.out.Push(b)
	return true
}

// TestBuildReferenceStages builds a pass-through stage ahead of the
// lookup: the stages tick between the arbiter and the output queues in
// list order, and a frame crosses both and leaves where the lookup sent
// it.
func TestBuildReferenceStages(t *testing.T) {
	pass := &passMod{}
	dev, _ := buildRefDevice(t, PipelineConfig{Stages: []Stage{
		func(p *Pipeline, in, out *hw.Stream) {
			pass.in, pass.out = in, out
			p.Dev.Dsn.AddModule(pass)
		},
		Lookup("to_port3", func(f *hw.Frame) Verdict {
			f.Meta.DstPorts = hw.PortMask(3)
			return Forward
		}, 1, hw.Resources{}),
	}})
	var order []string
	for _, m := range dev.Dsn.Modules() {
		switch n := m.Name(); n {
		case "input_arbiter", "pass", "to_port3", "output_queues":
			order = append(order, n)
		}
	}
	if got, want := strings.Join(order, " "), "input_arbiter pass to_port3 output_queues"; got != want {
		t.Fatalf("tick order %q, want %q", got, want)
	}
	dev.Tap(0).Send(make([]byte, 100))
	dev.RunFor(sim.Millisecond)
	if lookups := dev.Dsn.Stats()["to_port3.lookups"]; pass.frames != 1 || lookups != 1 {
		t.Fatalf("pass stage saw %d frames and the lookup %d, want 1 and 1", pass.frames, lookups)
	}
	for i := 0; i < dev.Board.Ports; i++ {
		want := 0
		if i == 3 {
			want = 1
		}
		if got := dev.Tap(i).Pending(); got != want {
			t.Errorf("port %d got %d frames, want %d", i, got, want)
		}
	}
}

func TestBuildReferenceWithDMA(t *testing.T) {
	dev, p := buildRefDevice(t, PipelineConfig{
		Stages: []Stage{Lookup("to_host", func(f *hw.Frame) Verdict {
			f.Meta.DstPorts = hw.HostPortMask(0)
			return Forward
		}, 0, hw.Resources{})},
		WithDMA: true,
	})
	if p.DMA == nil {
		t.Fatal("DMA stage missing")
	}
	dev.Tap(0).Send(make([]byte, 64))
	dev.RunFor(sim.Millisecond)
	if got := len(dev.Driver.Poll()); got != 1 {
		t.Fatalf("host got %d frames", got)
	}
}

func TestBuildReferenceDMARequiresHost(t *testing.T) {
	dev := core.NewDevice(core.SUME(), core.Options{NoHost: true})
	if _, err := BuildReference(dev, PipelineConfig{
		Stages: []Stage{Lookup("x", echoLookup, 0, hw.Resources{})}, WithDMA: true,
	}); err == nil {
		t.Fatal("DMA without a host interface accepted")
	}
}

func TestCPUInjectPath(t *testing.T) {
	dev, p := buildRefDevice(t, PipelineConfig{
		Stages: []Stage{Lookup("punt", func(f *hw.Frame) Verdict {
			if f.Meta.Flags&hw.FlagFromCPU != 0 && f.Meta.DstPorts != 0 {
				return Forward
			}
			return ToCPU
		}, 0, hw.Resources{})},
		WithCPU: true,
	})
	// Wire frame is punted; agent answers out port 3.
	dev.Tap(0).Send(make([]byte, 80))
	dev.RunFor(sim.Millisecond)
	punted := p.CPUPunt.Pop()
	if punted == nil {
		t.Fatal("nothing punted")
	}
	reply := hw.NewFrame(make([]byte, 70), 0)
	reply.Meta.DstPorts = hw.PortMask(3)
	if !p.InjectFromCPU(reply) {
		t.Fatal("inject failed")
	}
	dev.RunFor(sim.Millisecond)
	if dev.Tap(3).Pending() != 1 {
		t.Fatal("injected frame did not reach port 3")
	}
	// The injected frame must carry the CPU flag so the lookup passed
	// it verbatim rather than re-punting.
	rx := dev.Tap(3).Received()
	if len(rx[0].Data) != 70 {
		t.Fatal("wrong frame delivered")
	}
}

// TestSlowPathQueueDrops: the punt and inject queues' refusals appear
// once each, under the modules that own them, as Counts that leave the
// loss figure alone — and not at all before a queue has refused a
// frame.
func TestSlowPathQueueDrops(t *testing.T) {
	dev, p := buildRefDevice(t, PipelineConfig{
		Stages: []Stage{Lookup("punt", func(f *hw.Frame) Verdict {
			if f.Meta.Flags&hw.FlagFromCPU != 0 {
				return Forward
			}
			return ToCPU
		}, 0, hw.Resources{})},
		WithCPU: true,
	})
	st := dev.Dsn.Stats()
	for _, k := range []string{"punt.punt_drops", "cpu_inject.drops"} {
		if _, ok := st[k]; ok {
			t.Fatalf("%s exported before its queue dropped", k)
		}
	}
	// Nobody serves the punt queue (64 frames): 70 punts drop 6.
	for i := 0; i < 70; i++ {
		dev.Tap(0).Send(make([]byte, 60))
	}
	// The inject queue holds 64 frames until the datapath runs.
	for i := 0; i < 65; i++ {
		f := hw.NewFrame(make([]byte, 60), 0)
		f.Meta.DstPorts = hw.PortMask(1)
		p.InjectFromCPU(f)
	}
	dev.RunFor(sim.Millisecond)
	st = dev.Dsn.Stats()
	if st["punt.punts"] != 70 || st["punt.punt_drops"] != 6 || st["cpu_inject.drops"] != 1 {
		t.Fatalf("punts %d, punt_drops %d, cpu_inject.drops %d; want 70, 6 and 1",
			st["punt.punts"], st["punt.punt_drops"], st["cpu_inject.drops"])
	}
	if got := dev.Dsn.Sum(hw.QueueDrop); got != 0 {
		t.Fatalf("Sum(QueueDrop) = %d, want 0: slow-path refusals are Counts", got)
	}
}

func TestInjectWithoutCPUPanics(t *testing.T) {
	_, p := buildRefDevice(t, PipelineConfig{Stages: []Stage{Lookup("x", echoLookup, 0, hw.Resources{})}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.InjectFromCPU(hw.NewFrame(make([]byte, 60), 0))
}

func TestQueueSourceDrains(t *testing.T) {
	s := sim.New()
	clk := s.NewClockMHz("dp", 200)
	d := hw.NewDesign("t", clk, 32)
	q := d.NewFrameQueue("q", 8, 0)
	out := d.NewStream("out", 8)
	src := NewQueueSource(d, "src", q, out)
	got := 0
	d.AddModule(&drainMod{out: out, onPop: func() { got++ }})
	for i := 0; i < 3; i++ {
		q.Push(hw.NewFrame(make([]byte, 100), 0))
	}
	s.RunFor(sim.Millisecond)
	if got != 3 {
		t.Fatalf("drained %d frames", got)
	}
	if src.Counters().Map()["pkts"] != 3 {
		t.Fatal("source stats wrong")
	}
}

func TestTimestamperMetaMode(t *testing.T) {
	s := sim.New()
	clk := s.NewClockMHz("dp", 200)
	d := hw.NewDesign("t", clk, 32)
	in := d.NewStream("in", 8)
	out := d.NewStream("out", 8)
	ts := NewTimestamper(d, "ts", in, out, StampMeta, 0)
	var got *hw.Frame
	d.AddModule(&captureMod{out: out, cb: func(f *hw.Frame) { got = f }})
	f := hw.NewFrame(make([]byte, 64), 0)
	s.After(100*sim.Microsecond, func() { pushFrame(in, f, 32) })
	s.RunFor(sim.Millisecond)
	if got == nil {
		t.Fatal("frame lost")
	}
	if got.Meta.Flags&hw.FlagTimestamped == 0 {
		t.Fatal("meta not stamped")
	}
	if got.Meta.Ingress < 100*sim.Microsecond {
		t.Fatalf("timestamp %v before injection", got.Meta.Ingress)
	}
	// Payload untouched in meta mode.
	for _, b := range got.Data {
		if b != 0 {
			t.Fatal("payload modified in meta mode")
		}
	}
	if ts.Counters().Map()["pkts"] != 1 {
		t.Fatal("stats wrong")
	}
}

func TestMACAttachRegisters(t *testing.T) {
	dev, p := buildRefDevice(t, PipelineConfig{
		Stages: []Stage{Lookup("echo", echoLookup, 0, hw.Resources{})},
	})
	dev.Tap(2).Send(make([]byte, 200))
	dev.RunFor(sim.Millisecond)
	rf := p.Attach[2].Registers()
	// Registers() builds a fresh file each call with live callbacks;
	// check through the device map mounted at build time instead.
	rx, err := dev.Driver.ReadCounter64("nf2", "rx_pkts")
	if err != nil {
		t.Fatal(err)
	}
	if rx != 1 {
		t.Fatalf("rx_pkts = %d", rx)
	}
	up, err := dev.Driver.RegReadName("nf2", "link_up")
	if err != nil || up != 1 {
		t.Fatalf("link_up = %d, %v", up, err)
	}
	_ = rf
}

func TestOutputQueueRegisters(t *testing.T) {
	dev, _ := buildRefDevice(t, PipelineConfig{
		Stages: []Stage{Lookup("echo", echoLookup, 0, hw.Resources{})},
	})
	dev.Tap(0).Send(make([]byte, 100))
	dev.RunFor(sim.Millisecond)
	in, err := dev.Driver.ReadCounter64("output_queues", "in_pkts")
	if err != nil || in != 1 {
		t.Fatalf("in_pkts = %d, %v", in, err)
	}
	p0, err := dev.Driver.ReadCounter64("output_queues", "port0_pkts")
	if err != nil || p0 != 1 {
		t.Fatalf("port0_pkts = %d, %v", p0, err)
	}
}
