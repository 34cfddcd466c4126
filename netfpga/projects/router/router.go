// Package router is the reference IPv4 router project: a hardware fast
// path (LPM trie FIB, ARP table, TTL/checksum rewrite) with a software
// slow path (ARP resolution, ICMP generation, local delivery) and a
// register-programmable table interface for the router-management
// software, mirroring the NetFPGA reference router's architecture.
package router

import (
	"fmt"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/lib"
	"repro/netfpga/pkt"
)

// Config parameterises the router.
type Config struct {
	// Interfaces configures one (MAC, IP) per port; defaults are
	// generated when empty.
	Interfaces []IfConfig
	// AgentPoll is the slow-path polling interval (0 means 1 us).
	AgentPoll netfpga.Time
	// LookupLatency models the FIB access depth in cycles (0 means 6,
	// representing a pipelined external-SRAM read).
	LookupLatency int
	// ARPTimeout expires dynamically learned ARP entries idle this
	// long (0 disables aging; statically seeded entries never age).
	ARPTimeout netfpga.Time
}

// DefaultInterfaces generates the conventional lab addressing: port i
// has MAC 02:53:55:4d:45:0i and IP 10.0.i.1.
func DefaultInterfaces(ports int) []IfConfig {
	ifs := make([]IfConfig, ports)
	for i := range ifs {
		ifs[i] = IfConfig{
			MAC: pkt.MAC{0x02, 0x53, 0x55, 0x4d, 0x45, byte(i)},
			IP:  pkt.IP4{10, 0, byte(i), 1},
		}
	}
	return ifs
}

// Project is the reference router.
type Project struct {
	cfg Config
	eng *Engine

	pipe *lib.Pipeline
	dev  *netfpga.Device

	// Register-programming scratch state (the table-write interface).
	regPrefix, regMask, regNextHop, regPort uint32
}

// New returns a reference router project.
func New(cfg Config) *Project { return &Project{cfg: cfg} }

// Name implements netfpga.Project.
func (p *Project) Name() string { return "reference_router" }

// Description implements netfpga.Project.
func (p *Project) Description() string {
	return "reference IPv4 router: LPM fast path, ARP/ICMP software slow path"
}

// Engine exposes the router's tables (valid after Build, or for
// standalone engine use in tests).
func (p *Project) Engine() *Engine { return p.eng }

// Build implements netfpga.Project.
func (p *Project) Build(dev *netfpga.Device) error {
	p.dev = dev
	ifs := p.cfg.Interfaces
	if len(ifs) == 0 {
		ifs = DefaultInterfaces(dev.Board.Ports)
	}
	if len(ifs) != dev.Board.Ports {
		return fmt.Errorf("router: %d interfaces for %d ports", len(ifs), dev.Board.Ports)
	}
	p.eng = NewEngine(ifs)

	lat := p.cfg.LookupLatency
	if lat == 0 {
		lat = 6
	}
	pipe, err := lib.BuildReference(dev, lib.PipelineConfig{
		Stages: []lib.Stage{lib.Lookup("router_output_port_lookup", p.lookup, lat,
			hw.Resources{LUTs: 9300, FFs: 10100, BRAM36: 22})},
		WithDMA: dev.Engine != nil,
		WithCPU: true,
	})
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	p.pipe = pipe
	dev.MountRegs(p.registers())

	poll := p.cfg.AgentPoll
	if poll == 0 {
		poll = netfpga.Microsecond
	}
	if p.cfg.ARPTimeout > 0 {
		p.eng.SetClock(func() int64 { return int64(dev.Now()) })
	}
	dev.AddAgent(&agent{p: p, poll: poll})
	return nil
}

// Reset implements hw.Resetter: empty tables, zero counters. The
// table-write registers are plain registers, which the device's
// register map restores; the agent keeps no state of its own.
func (p *Project) Reset() { p.eng.Reset() }

// lookup is the hardware fast path.
func (p *Project) lookup(f *hw.Frame) lib.Verdict {
	if f.Meta.Flags&hw.FlagFromCPU != 0 && f.Meta.DstPorts != 0 {
		return lib.Forward
	}
	if f.Meta.Flags&hw.FlagFromHost != 0 {
		// Host-originated packets leave the port matching their queue,
		// as in the reference router (the host is the control plane).
		q := int(f.Meta.SrcPort) - hw.HostPortBase
		f.Meta.DstPorts = hw.PortMask(q % len(p.eng.Ifs))
		return lib.Forward
	}
	res, port := p.eng.Forward(f.Data, f.Meta.SrcPort)
	switch res {
	case FwdForward:
		f.Meta.DstPorts = hw.PortMask(int(port))
		return lib.Forward
	case FwdToCPU:
		f.Meta.DstPorts = 0
		return lib.ToCPU
	default:
		return lib.Drop
	}
}

// SlowPath is the software's answer to a frame the fast path punted:
// the frames it sends, each out its port. The agent runs it on the CPU
// queue, and the twin on what the twin punts.
func (p *Project) SlowPath(f *hw.Frame) []netfpga.Emit { return p.eng.SlowPath(f.Data, f.Meta.SrcPort) }

// agent is the router's slow-path software.
type agent struct {
	p    *Project
	poll netfpga.Time
}

// Name implements netfpga.Agent.
func (a *agent) Name() string { return "router_agent" }

// Start implements netfpga.Agent.
func (a *agent) Start(dev *netfpga.Device) {
	dev.Every(a.poll, func() {
		for {
			f := a.p.pipe.CPUPunt.Pop()
			if f == nil {
				return
			}
			for _, e := range a.p.SlowPath(f) {
				out := hw.NewFrame(e.Data, 0)
				out.Meta.DstPorts = hw.PortMask(e.Port)
				a.p.pipe.InjectFromCPU(out)
			}
		}
	})
	if timeout := a.p.cfg.ARPTimeout; timeout > 0 {
		dev.Every(timeout/4, func() {
			a.p.eng.AgeARP(int64(dev.Now() - timeout))
		})
	}
}

// AddRoute programs a FIB entry (the Go API; the register interface
// below is what router-management software uses over PCIe).
func (p *Project) AddRoute(r Route) { p.eng.FIB.Insert(r) }

// AddARP seeds an ARP entry.
func (p *Project) AddARP(ip pkt.IP4, mac pkt.MAC) { p.eng.ARP.Put(ip, mac) }

// registers builds the router's control block, including the
// write-side-effect table interface of the reference design: software
// loads prefix/mask/next-hop/port registers and the write to
// "route_commit" inserts the entry.
func (p *Project) registers() *hw.RegisterFile {
	rf := hw.NewRegisterFile("router")
	rf.AddVar(0x00, "route_prefix", &p.regPrefix)
	rf.AddVar(0x04, "route_mask_bits", &p.regMask)
	rf.AddVar(0x08, "route_nexthop", &p.regNextHop)
	rf.AddVar(0x0C, "route_port", &p.regPort)
	rf.AddRW(0x10, "route_commit",
		func() uint32 { return uint32(p.eng.FIB.Len()) },
		func(v uint32) {
			r := Route{
				Prefix:  pkt.Prefix{Addr: pkt.IP4FromUint32(p.regPrefix), Bits: uint8(p.regMask)},
				NextHop: pkt.IP4FromUint32(p.regNextHop),
				Port:    uint8(p.regPort),
			}
			if v == 0 {
				p.eng.FIB.Remove(r.Prefix)
			} else {
				p.eng.FIB.Insert(r)
			}
		})
	rf.AddCounter64(0x18, "forwarded", &p.eng.C.Forwarded)
	rf.AddCounter64(0x20, "ttl_expired", &p.eng.C.TTLExpired)
	rf.AddCounter64(0x28, "no_route", &p.eng.C.NoRoute)
	rf.AddCounter64(0x30, "arp_miss", &p.eng.C.ARPMiss)
	rf.AddCounter64(0x38, "icmp_sent", &p.eng.C.ICMPSent)
	rf.AddCounter64(0x40, "bad_checksum", &p.eng.C.BadChecksum)
	rf.AddRO(0x48, "fib_size", func() uint32 { return uint32(p.eng.FIB.Len()) })
	rf.AddRO(0x4C, "arp_size", func() uint32 { return uint32(p.eng.ARP.Len()) })
	return rf
}
