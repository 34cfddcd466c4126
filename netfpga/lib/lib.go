// Package lib is the gonetfpga standard module library: the reusable
// building blocks every NetFPGA reference project composes — MAC and DMA
// attach adapters, the input arbiter, the output-port-lookup slot, the
// output queues — plus the contributed-project staples (rate limiter,
// delay, timestamper, statistics).
//
// Modules follow the conventions of netfpga/hw: one Tick per datapath
// clock cycle, at most one beat moved per stream per cycle, backpressure
// through bounded streams, and analytic Resources estimates calibrated
// to published NetFPGA synthesis reports.
package lib

import "repro/netfpga/hw"

// Indexed counter and register names, formatted once at init so modules
// register per-port counters with static strings.
var (
	grantsInNames    = hw.NewNameTable("grants_in%d", 16)
	portPktsNames    = hw.NewNameTable("port%d_pkts", 32)
	portDropsNames   = hw.NewNameTable("port%d_drops", 32)
	portHighwtrNames = hw.NewNameTable("port%d_highwater", 32)
	portDepthNames   = hw.NewNameTable("port%d_depth", 32)
	oqNames          = hw.NewNameTable("oq%d", 32)
)

// collectFrame is the inverse of hw.Emitter: it consumes beats from a stream and
// reports the completed frame when the Last beat arrives.
type collectFrame struct{}

// collect pops at most one beat from in; when that beat is the frame's
// last, the whole frame is returned (beats are windows over one shared
// frame, so nothing is copied).
func (collectFrame) collect(in *hw.Stream) (*hw.Frame, bool) {
	if !in.CanPop() {
		return nil, false
	}
	b := in.Pop()
	if b.Last {
		return b.Frame, true
	}
	return nil, false
}
