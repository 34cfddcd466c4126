package lib

import (
	"fmt"

	"repro/internal/core"
	"repro/netfpga/hw"
)

// QueueSource drains a frame queue into a stream at one beat per cycle —
// the CPU-inject path agents use to put slow-path frames (ARP replies,
// ICMP errors) back on the wire.
type QueueSource struct {
	name string
	d    *hw.Design
	q    *hw.FrameQueue
	out  *hw.Stream
	emit hw.Emitter
	pkts uint64
	ctrs hw.Counters
}

// NewQueueSource creates the module. It exports the source queue's
// refusals as drops, a Count (the pushing agent sees each one), once
// the queue has refused a frame.
func NewQueueSource(d *hw.Design, name string, q *hw.FrameQueue, out *hw.Stream) *QueueSource {
	s := &QueueSource{name: name, d: d, q: q, out: out}
	s.ctrs.Add("pkts", &s.pkts)
	drops, c := new(hw.Counters), q.DropCounter("drops", hw.Count)
	drops.AddCounter(c)
	s.ctrs.Include("", drops, c.Ptr)
	d.AddModule(s)
	d.Consume(s, q)
	return s
}

// Name implements hw.Module.
func (s *QueueSource) Name() string { return s.name }

// Resources implements hw.Module.
func (s *QueueSource) Resources() hw.Resources {
	return hw.Resources{LUTs: 700, FFs: 900, BRAM36: 2}
}

// Tick implements hw.Module.
func (s *QueueSource) Tick() bool {
	if !s.emit.Active() {
		if f := s.q.Pop(); f != nil {
			s.emit.Start(f)
			s.pkts++
		}
	}
	pushed, _ := s.emit.Emit(s.out, s.d.BusBytes())
	return pushed || s.emit.Active() || s.q.Len() > 0
}

// Reset implements hw.Resetter: the frame being streamed goes back to
// the design's pool. The source queue is the design's.
func (s *QueueSource) Reset() { s.emit.Drop(s.d.Pool()); s.pkts = 0 }

// Counters implements hw.CounterSource.
func (s *QueueSource) Counters() *hw.Counters { return &s.ctrs }

// Stage builds one step of a pipeline's datapath: the module, or
// modules, that read in and write out. A stage reaches the device, and
// the CPU punt queue when the pipeline has one, through p.
type Stage func(p *Pipeline, in, out *hw.Stream)

// Lookup is the decision stage: an OutputPortLookup applying fn after
// latency cycles, which punts to the pipeline's CPU queue. res is the
// lookup logic's resource estimate, tables included.
func Lookup(name string, fn LookupFunc, latency int, res hw.Resources) Stage {
	return func(p *Pipeline, in, out *hw.Stream) {
		NewOutputPortLookup(p.Dev.Dsn, name, in, out, fn, latency, res, p.CPUPunt)
	}
}

// PipelineConfig parameterises the canonical reference pipeline.
type PipelineConfig struct {
	// Stages are the modules between the input arbiter and the output
	// queues, in datapath order; the last one usually decides
	// Meta.DstPorts.
	Stages []Stage
	// WithDMA attaches the host DMA path (requires a host interface).
	WithDMA bool
	// WithCPU adds the slow-path queues (punt + inject).
	WithCPU bool
	// QueueBytes bounds each output queue (0 means lib.PortQueueBytes).
	QueueBytes int
	// RxFIFOBytes bounds each port's receive FIFO (0 means 32 KB).
	RxFIFOBytes int
}

// Pipeline is the assembled reference datapath:
//
//	ports ─ MACAttach ─┐
//	host  ─ DMAAttach ─┤─ InputArbiter ─ Stages[0] ─ … ─ Stages[n-1] ─ OutputQueues ─ back out
//	agent ─ QueueSrc  ─┘                      │
//	                                    CPU punt queue
//
// Every forwarding project — the four reference projects and BlueSwitch
// — instantiates this shape and differs only in its stages and its
// software: the reference projects have one Lookup stage, BlueSwitch one
// per flow table, and a prototype inserts its own module ahead of a
// shipped project's stage. That is the modularity the paper
// demonstrates.
type Pipeline struct {
	Dev     *core.Device
	Attach  []*MACAttach
	DMA     *DMAAttach
	Arbiter *InputArbiter
	OQ      *OutputQueues

	// CPUPunt receives ToCPU frames for the agent.
	CPUPunt *hw.FrameQueue
	// cpuInject carries agent frames into the arbiter.
	cpuInject *hw.FrameQueue
}

// BuildReference assembles the pipeline on a device and mounts the
// standard register blocks.
func BuildReference(dev *core.Device, cfg PipelineConfig) (*Pipeline, error) {
	d := dev.Dsn
	p := &Pipeline{Dev: dev}

	var ins []*hw.Stream
	outs := map[int]*hw.Stream{}
	for i, mac := range dev.MACs {
		rx := d.NewStream(fmt.Sprintf("rx%d", i), 16)
		tx := d.NewStream(fmt.Sprintf("tx%d", i), 16)
		att := NewMACAttach(d, mac, i, rx, tx, cfg.RxFIFOBytes)
		p.Attach = append(p.Attach, att)
		ins = append(ins, rx)
		outs[i] = tx
		dev.MountRegs(att.Registers())
	}

	if cfg.WithDMA {
		if dev.Engine == nil {
			return nil, fmt.Errorf("lib: project needs DMA but board %s has no host interface", dev.Board.Name)
		}
		h2d := d.NewStream("dma-rx", 16)
		d2h := d.NewStream("dma-tx", 16)
		p.DMA = NewDMAAttach(d, dev.Engine, h2d, d2h)
		ins = append(ins, h2d)
		// All host queues share the DMA return stream; the driver
		// demultiplexes by destination mask.
		for q := 0; q < dev.Board.Ports && q < hw.MaxHostPorts; q++ {
			outs[hw.HostPortBase+q] = d2h
		}
		dev.MountRegs(p.DMA.Registers())
	}

	if cfg.WithCPU {
		p.CPUPunt = d.NewFrameQueue("cpu-punt", 64, 0)
		p.cpuInject = d.NewFrameQueue("cpu-inject", 64, 0)
		inj := d.NewStream("cpu-inj", 16)
		NewQueueSource(d, "cpu_inject", p.cpuInject, inj)
		ins = append(ins, inj)
	}

	cur := d.NewStream("arb-out", 16)
	p.Arbiter = NewInputArbiter(d, ins, cur)
	for k, stage := range cfg.Stages {
		next := d.NewStream(fmt.Sprintf("stage%d-out", k), 16)
		stage(p, cur, next)
		cur = next
	}
	p.OQ = NewOutputQueues(d, cur, outs, cfg.QueueBytes)
	dev.MountRegs(p.OQ.Registers())
	return p, nil
}

// InjectFromCPU queues a slow-path frame for transmission. The frame's
// Meta.DstPorts must already be set; FlagFromCPU is added so the lookup
// stage forwards it verbatim.
func (p *Pipeline) InjectFromCPU(f *hw.Frame) bool {
	if p.cpuInject == nil {
		panic("lib: pipeline built without WithCPU")
	}
	f.Meta.Flags |= hw.FlagFromCPU
	return p.cpuInject.Push(f)
}
