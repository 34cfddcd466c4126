// Package switchp is the reference switch project: a learning layer-2
// switch with a bounded CAM, flooding on miss/broadcast, and optional
// address aging — the design most NetFPGA teaching labs start from.
package switchp

import (
	"fmt"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/lib"
	"repro/netfpga/pkt"
)

// Config tunes the switch.
type Config struct {
	// TableSize bounds the CAM (0 means 16384 entries).
	TableSize int
	// AgeAfter expires idle entries (0 disables aging).
	AgeAfter netfpga.Time
	// WithDMA bridges unknown-unicast/broadcast to the host as well.
	WithDMA bool
}

// Project is the reference switch.
type Project struct {
	cfg   Config
	ports int
	cam   *CAM
	dev   *netfpga.Device

	floods uint64
}

// New returns a reference switch project.
func New(cfg Config) *Project { return &Project{cfg: cfg} }

// Name implements netfpga.Project.
func (p *Project) Name() string { return "reference_switch" }

// Description implements netfpga.Project.
func (p *Project) Description() string {
	return "reference learning L2 switch: CAM learning, flood on miss, aging"
}

// Build implements netfpga.Project: the reference pipeline with Stage
// as its one stage.
func (p *Project) Build(dev *netfpga.Device) error {
	if _, err := lib.BuildReference(dev, lib.PipelineConfig{
		Stages:  []lib.Stage{p.Stage()},
		WithDMA: p.cfg.WithDMA,
	}); err != nil {
		return fmt.Errorf("switchp: %w", err)
	}

	rf := hw.NewRegisterFile("switch")
	rf.AddCounter64(0x0, "floods", &p.floods)
	rf.AddRO(0x8, "cam_entries", func() uint32 { return uint32(p.cam.Len()) })
	rf.AddRO(0xC, "cam_size", func() uint32 { return uint32(p.cfg.TableSize) })
	dev.MountRegs(rf)

	if p.cfg.AgeAfter > 0 {
		dev.AddAgent(&sweeper{p: p})
	}
	return nil
}

// Stage returns the switch's decision stage, the one Build uses, so a
// design of its own can run the shipped switch behind stages it adds.
// Building the stage binds the project to the pipeline's device and
// gives it an empty CAM.
func (p *Project) Stage() lib.Stage {
	lookup := lib.Lookup("switch_output_port_lookup", p.lookup,
		2, // CAM read + decision
		hw.Resources{LUTs: 4100, FFs: 4600, BRAM36: 13})
	return func(pipe *lib.Pipeline, in, out *hw.Stream) {
		p.dev, p.ports = pipe.Dev, pipe.Dev.Board.Ports
		p.cam = NewCAM(p.cfg.TableSize, int64(p.cfg.AgeAfter))
		lookup(pipe, in, out)
	}
}

// lookup is the switch decision.
func (p *Project) lookup(f *hw.Frame) lib.Verdict {
	if f.Meta.Flags&hw.FlagFromCPU != 0 && f.Meta.DstPorts != 0 {
		return lib.Forward
	}
	var eth pkt.Ethernet
	if err := eth.DecodeFromBytes(f.Data); err != nil {
		return lib.Drop
	}
	now := int64(p.dev.Now())
	ingress := f.Meta.SrcPort
	fromHost := f.Meta.Flags&hw.FlagFromHost != 0
	if !fromHost {
		p.cam.Learn(eth.Src, ingress, now)
	}

	if !eth.Dst.IsMulticast() {
		if port, ok := p.cam.Lookup(eth.Dst, now); ok {
			if !fromHost && port == ingress {
				return lib.Drop // destination is on the source segment
			}
			f.Meta.DstPorts = hw.PortMask(int(port))
			return lib.Forward
		}
	}
	// Broadcast, multicast or unknown unicast: flood.
	p.floods++
	mask := hw.AllPortsMask(p.ports)
	if !fromHost {
		mask &^= hw.PortMask(int(ingress))
	}
	f.Meta.DstPorts = mask
	return lib.Forward
}

// Reset implements hw.Resetter: the switch as Build left it, with an
// empty CAM. The aging agent keeps no state of its own.
func (p *Project) Reset() {
	p.cam.Reset()
	p.floods = 0
}

// CAMTable exposes the table for tests and the CLI.
func (p *Project) CAMTable() *CAM { return p.cam }

// sweeper is the switch agent: periodic CAM aging.
type sweeper struct {
	p *Project
}

// Name implements netfpga.Agent.
func (s *sweeper) Name() string { return "cam_sweeper" }

// Start implements netfpga.Agent.
func (s *sweeper) Start(dev *netfpga.Device) {
	interval := s.p.cfg.AgeAfter / 4
	if interval <= 0 {
		return
	}
	dev.Every(interval, func() { s.p.cam.Sweep(int64(dev.Now())) })
}
