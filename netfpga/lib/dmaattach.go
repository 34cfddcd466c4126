package lib

import (
	"repro/internal/pcie"
	"repro/netfpga/hw"
)

// DMAAttach bridges the PCIe DMA engine into the datapath, mirroring the
// reference designs' DMA block: frames that completed host→device DMA
// stream into the pipeline, and pipeline frames destined for host queues
// are handed to the engine for device→host DMA.
type DMAAttach struct {
	name string
	d    *hw.Design
	eng  *pcie.Engine

	toPipe   *hw.Stream // into the datapath
	fromPipe *hw.Stream // out of the datapath

	emit   hw.Emitter
	txHold *hw.Frame

	h2dPkts, d2hPkts uint64
	ctrs             hw.Counters
}

// NewDMAAttach creates the adapter. toPipe carries host frames into the
// pipeline; fromPipe receives pipeline frames bound for the host.
func NewDMAAttach(d *hw.Design, eng *pcie.Engine, toPipe, fromPipe *hw.Stream) *DMAAttach {
	a := &DMAAttach{name: "dma.attach", d: d, eng: eng, toPipe: toPipe, fromPipe: fromPipe}
	a.ctrs.Grow(2)
	a.ctrs.Add("h2d_pkts", &a.h2dPkts)
	a.ctrs.Add("d2h_pkts", &a.d2hPkts)
	a.ctrs.Include("engine_", eng.Counters(), nil)
	d.AddModule(a)
	// Waking the datapath when DMA completes lands a frame in ToDevice;
	// only this module needs to run for it.
	d.Consume(a, eng.ToDevice(), fromPipe)
	return a
}

// Name implements hw.Module.
func (a *DMAAttach) Name() string { return a.name }

// Resources implements hw.Module: the DMA engine is one of the larger
// blocks in the reference designs.
func (a *DMAAttach) Resources() hw.Resources {
	return hw.Resources{LUTs: 14000, FFs: 18000, BRAM36: 28}
}

// Tick implements hw.Module.
func (a *DMAAttach) Tick() bool {
	busy := false

	// Host → pipeline.
	if !a.emit.Active() {
		if f := a.eng.ToDevice().Pop(); f != nil {
			f.Meta.Len = uint16(len(f.Data))
			f.Meta.Ingress = a.d.Now()
			a.emit.Start(f)
			a.h2dPkts++
		}
	}
	if a.emit.Active() {
		if pushed, _ := a.emit.Emit(a.toPipe, a.d.BusBytes()); pushed {
			busy = true
		}
	}

	// Pipeline → host.
	if a.txHold == nil {
		if f, done := (collectFrame{}).collect(a.fromPipe); done {
			a.txHold = f
		}
	}
	if a.txHold != nil {
		if a.eng.FromDevice().CanAccept(len(a.txHold.Data)) {
			f := a.txHold
			// The host driver retains delivered Data indefinitely (and
			// host code may rewrite it in place), so a frame whose
			// buffer is shared with multicast siblings still inside the
			// datapath is swapped for a private copy here, at the last
			// pool-aware point before it leaves the device.
			if f.Shared() {
				g := a.d.Pool().Clone(f)
				a.d.Pool().Put(f)
				f = g
			}
			a.eng.FromDevice().Push(f)
			a.d2hPkts++
			a.txHold = nil
		}
		busy = true
	}

	return busy || a.emit.Active() || a.eng.ToDevice().Len() > 0 || a.fromPipe.CanPop()
}

// Reset implements hw.Resetter: the frame being streamed in and the one
// waiting for engine space go back to the design's pool. The engine is
// the device's.
func (a *DMAAttach) Reset() {
	pool := a.d.Pool()
	a.emit.Drop(pool)
	pool.Put(a.txHold)
	a.txHold = nil
	a.h2dPkts, a.d2hPkts = 0, 0
}

// Counters implements hw.CounterSource: the attach's own counters plus
// the engine's as engine_*.
func (a *DMAAttach) Counters() *hw.Counters { return &a.ctrs }

// Registers exposes DMA counters.
func (a *DMAAttach) Registers() *hw.RegisterFile {
	rf := hw.NewRegisterFile("dma")
	rf.AddCounters(0x00, a.ctrs.List()...)
	return rf
}
