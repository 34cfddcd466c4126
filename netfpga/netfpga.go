// Package netfpga is the public face of gonetfpga, a software
// reproduction of the NetFPGA open platform for rapid prototyping of
// networking devices (Zilberman et al., SIGCOMM 2015).
//
// The package exposes the three platform boards (SUME, NetFPGA-10G,
// NetFPGA-1G-CML) as simulated devices: each device instantiates a
// cycle-stepped FPGA datapath (netfpga/hw), port MACs with exact
// line-rate timing, a PCIe DMA engine with a host driver, and the
// board's memory and storage subsystems. Projects — the reference NIC,
// switch, router and I/O test, plus contributed projects such as OSNT
// and BlueSwitch under netfpga/projects — assemble module pipelines onto
// a device.
//
// A minimal session:
//
//	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
//	proj := nic.New()
//	if err := proj.Build(dev); err != nil { ... }
//	dev.Driver.Send(frame, 0)         // host transmits on queue 0
//	dev.RunFor(netfpga.Millisecond)   // advance simulated time
//	rx := dev.Tap(0).Received()       // frames that left port 0
package netfpga

import (
	"repro/internal/core"
	"repro/netfpga/hw"
)

// Core platform types, re-exported so users never import internal
// packages.
type (
	// Device is an instantiated board running one design.
	Device = core.Device
	// BoardSpec describes a platform board.
	BoardSpec = core.BoardSpec
	// Options tune device instantiation.
	Options = core.Options
	// PortTap is a traffic endpoint plugged into a device port.
	PortTap = core.PortTap
	// RxFrame is a frame captured at a tap.
	RxFrame = core.RxFrame
	// Agent is project firmware running against the register file.
	Agent = core.Agent
	// Time is simulated time in picoseconds.
	Time = hw.Time
	// Background is the hybrid-fidelity analytic traffic model a
	// hybrid device carries (Device.Background; nil in full fidelity).
	Background = core.Background
)

// Fidelity values for Options.Fidelity: full (the default, bit-exact
// cycle-accurate simulation of every frame) and hybrid (cycle-accurate
// foreground plus the analytic background model).
const (
	FidelityFull   = core.FidelityFull
	FidelityHybrid = core.FidelityHybrid
)

// Duration units.
const (
	Picosecond  = hw.Picosecond
	Nanosecond  = hw.Nanosecond
	Microsecond = hw.Microsecond
	Millisecond = hw.Millisecond
	Second      = hw.Second
)

// Board constructors.
var (
	// SUME is the 100Gbps-class flagship board (4x10G configuration).
	SUME = core.SUME
	// SUME40G is SUME bonded as 2x40GbE.
	SUME40G = core.SUME40G
	// SUME100G is SUME bonded as 1x100GbE.
	SUME100G = core.SUME100G
	// TenG is the NetFPGA-10G board.
	TenG = core.TenG
	// OneGCML is the NetFPGA-1G-CML board.
	OneGCML = core.OneGCML
	// Boards lists every supported board.
	Boards = core.Boards
)

// NewDevice instantiates a board as a simulated device.
func NewDevice(board BoardSpec, opts Options) *Device {
	return core.NewDevice(board, opts)
}

// Project is a NetFPGA project: hardware (a module pipeline), software
// (agents and register use), tests and documentation, packaged to be run
// or modified as a unit.
type Project interface {
	// Name is the project's short name ("reference_nic").
	Name() string
	// Description is a one-line summary.
	Description() string
	// Build assembles the project's pipeline onto the device.
	Build(dev *Device) error
}

// Emit is one frame a project's software sends out port Port (the
// router's slow path answers with them).
type Emit struct {
	Port int
	Data []byte
}
