// Package nic is the reference NIC project: the simplest reference
// design, connecting each front-panel port to the corresponding host DMA
// queue. It is the "hello world" of the platform and the basis of the
// host-I/O experiments.
package nic

import (
	"fmt"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/lib"
)

// Project is the reference NIC.
type Project struct {
	ports int

	rxToHost, txFromHost uint64
}

// New returns a reference NIC project.
func New() *Project { return &Project{} }

// Name implements netfpga.Project.
func (p *Project) Name() string { return "reference_nic" }

// Description implements netfpga.Project.
func (p *Project) Description() string {
	return "reference NIC: each port bridged to its host DMA queue"
}

// Build implements netfpga.Project.
func (p *Project) Build(dev *netfpga.Device) error {
	p.ports = dev.Board.Ports
	if _, err := lib.BuildReference(dev, lib.PipelineConfig{
		Stages: []lib.Stage{lib.Lookup("nic_output_port_lookup", p.lookup, 1,
			hw.Resources{LUTs: 1900, FFs: 2300, BRAM36: 1})},
		WithDMA: true,
	}); err != nil {
		return fmt.Errorf("nic: %w", err)
	}
	rf := hw.NewRegisterFile("nic")
	rf.AddCounter64(0x0, "rx_to_host", &p.rxToHost)
	rf.AddCounter64(0x8, "tx_from_host", &p.txFromHost)
	dev.MountRegs(rf)
	return nil
}

// Reset implements hw.Resetter.
func (p *Project) Reset() { p.rxToHost, p.txFromHost = 0, 0 }

// lookup bridges ports and host queues 1:1.
func (p *Project) lookup(f *hw.Frame) lib.Verdict {
	if f.Meta.Flags&hw.FlagFromHost != 0 {
		q := int(f.Meta.SrcPort) - hw.HostPortBase
		f.Meta.DstPorts = hw.PortMask(q % p.ports)
		p.txFromHost++
	} else {
		f.Meta.DstPorts = hw.HostPortMask(int(f.Meta.SrcPort) % hw.MaxHostPorts)
		p.rxToHost++
	}
	return lib.Forward
}
