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

// NewQueueSource creates the module.
func NewQueueSource(d *hw.Design, name string, q *hw.FrameQueue, out *hw.Stream) *QueueSource {
	s := &QueueSource{name: name, d: d, q: q, out: out}
	s.ctrs.Add("pkts", &s.pkts)
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

// Reset implements hw.Resetter. The source queue is the design's.
func (s *QueueSource) Reset() { s.emit, s.pkts = hw.Emitter{}, 0 }

// Counters implements hw.CounterSource.
func (s *QueueSource) Counters() *hw.Counters { return &s.ctrs }

// PipelineConfig parameterises the canonical reference pipeline.
type PipelineConfig struct {
	// LookupName names the project's decision stage.
	LookupName string
	// Lookup is the project's forwarding decision.
	Lookup LookupFunc
	// LookupLatency models the decision's pipeline depth in cycles.
	LookupLatency int
	// LookupRes is the decision stage's resource estimate.
	LookupRes hw.Resources
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
//	host  ─ DMAAttach ─┤─ InputArbiter ─ OutputPortLookup ─ OutputQueues ─ back out
//	agent ─ QueueSrc  ─┘                        │
//	                                        CPU punt queue
//
// Every reference and contributed project instantiates this shape and
// differs only in the lookup stage and its software — the modularity the
// paper demonstrates.
type Pipeline struct {
	Dev     *core.Device
	Attach  []*MACAttach
	DMA     *DMAAttach
	Arbiter *InputArbiter
	OPL     *OutputPortLookup
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

	merged := d.NewStream("arb-opl", 16)
	decided := d.NewStream("opl-oq", 16)
	p.Arbiter = NewInputArbiter(d, ins, merged)
	p.OPL = NewOutputPortLookup(d, cfg.LookupName, merged, decided,
		cfg.Lookup, cfg.LookupLatency, cfg.LookupRes, p.CPUPunt)
	p.OQ = NewOutputQueues(d, decided, outs, cfg.QueueBytes)
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
