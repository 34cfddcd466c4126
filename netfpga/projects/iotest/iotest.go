// Package iotest is the reference I/O-exercise project: every NetFPGA
// release ships a design that drives all the board's interfaces — ports,
// host DMA, memories and storage — to validate a bring-up. Built on a
// device, it loops wire traffic back out its ingress port and host
// traffic back to its queue; RunSelfTest drives patterns through every
// interface and reports per-interface results.
package iotest

import (
	"bytes"
	"fmt"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/lib"
)

// Project is the I/O test design.
type Project struct{}

// New returns an I/O test project.
func New() *Project { return &Project{} }

// Name implements netfpga.Project.
func (p *Project) Name() string { return "reference_iotest" }

// Description implements netfpga.Project.
func (p *Project) Description() string {
	return "I/O exerciser: loops back every port and host queue, walks memories and storage"
}

// Build implements netfpga.Project.
func (p *Project) Build(dev *netfpga.Device) error {
	if _, err := lib.BuildReference(dev, lib.PipelineConfig{
		Stages:  []lib.Stage{lib.Lookup("iotest_loopback", loopback, 1, hw.Resources{LUTs: 1500, FFs: 1800})},
		WithDMA: dev.Engine != nil,
	}); err != nil {
		return fmt.Errorf("iotest: %w", err)
	}
	return nil
}

// Reset implements hw.Resetter: the loopback keeps no state outside its
// pipeline.
func (p *Project) Reset() {}

// loopback returns every frame whence it came.
func loopback(f *hw.Frame) lib.Verdict {
	if f.Meta.Flags&hw.FlagFromHost != 0 {
		f.Meta.DstPorts = hw.HostPortMask(int(f.Meta.SrcPort) - hw.HostPortBase)
	} else {
		f.Meta.DstPorts = hw.PortMask(int(f.Meta.SrcPort))
	}
	return lib.Forward
}

// Result is one interface's self-test outcome.
type Result struct {
	Interface string
	Pass      bool
	Detail    string
}

// Report is the full self-test outcome.
type Report struct {
	Results []Result
}

// Pass reports whether every interface passed.
func (r *Report) Pass() bool {
	for _, res := range r.Results {
		if !res.Pass {
			return false
		}
	}
	return true
}

// String renders the report.
func (r *Report) String() string {
	var b bytes.Buffer
	for _, res := range r.Results {
		status := "PASS"
		if !res.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%-12s %s  %s\n", res.Interface, status, res.Detail)
	}
	return b.String()
}

// pattern fills a frame with a recognizable position-dependent pattern.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 ^ seed
	}
	return b
}

// RunSelfTest exercises every I/O interface of a device built with this
// project and returns the per-interface report.
func (p *Project) RunSelfTest(dev *netfpga.Device) *Report {
	rep := &Report{}

	// Front-panel ports: frames loop back intact.
	const perPort = 20
	taps := make([]*netfpga.PortTap, dev.Board.Ports)
	for i := range taps {
		taps[i] = dev.Tap(i)
	}
	for i, tap := range taps {
		for j := 0; j < perPort; j++ {
			tap.Send(pattern(64+17*j, byte(i)))
		}
	}
	dev.RunFor(5 * netfpga.Millisecond)
	for i, tap := range taps {
		rx := tap.Received()
		ok := len(rx) == perPort
		detail := fmt.Sprintf("%d/%d frames", len(rx), perPort)
		for j, f := range rx {
			if !bytes.Equal(f.Data, pattern(64+17*j, byte(i))) {
				ok = false
				detail = fmt.Sprintf("frame %d corrupted", j)
				break
			}
		}
		rep.Results = append(rep.Results, Result{
			Interface: fmt.Sprintf("port%d", i), Pass: ok, Detail: detail})
	}

	// Host DMA: frames loop back to their queue.
	if dev.Driver != nil {
		const perQ = 10
		for q := 0; q < dev.Board.Ports; q++ {
			for j := 0; j < perQ; j++ {
				_ = dev.Driver.Send(pattern(128+j, byte(0x40+q)), q)
			}
		}
		dev.RunFor(5 * netfpga.Millisecond)
		got := map[int]int{}
		ok := true
		for _, rx := range dev.Driver.Poll() {
			got[rx.Queue]++
		}
		for q := 0; q < dev.Board.Ports; q++ {
			if got[q] != perQ {
				ok = false
			}
		}
		rep.Results = append(rep.Results, Result{
			Interface: "dma", Pass: ok,
			Detail: fmt.Sprintf("per-queue loopback %v", got)})
	}

	// Memories: pattern write/read-back over a window.
	for _, m := range dev.SRAMs {
		rep.Results = append(rep.Results, memTest(dev, m.Name(), m.Size(),
			func(addr uint64, d []byte, cb func()) { m.Write(addr, d, cb) },
			func(addr uint64, n int, cb func([]byte)) { m.Read(addr, n, cb) }))
	}
	for _, m := range dev.DRAMs {
		rep.Results = append(rep.Results, memTest(dev, m.Name(), m.Size(),
			func(addr uint64, d []byte, cb func()) { m.Write(addr, d, cb) },
			func(addr uint64, n int, cb func([]byte)) { m.Read(addr, n, cb) }))
	}

	// Storage: block write/read-back.
	for _, disk := range dev.Disks {
		data := pattern(4096, 0x5D)
		var wErr error
		var rData []byte
		disk.Write(100, data, func(err error) { wErr = err })
		disk.Read(100, len(data)/512, func(b []byte, err error) {
			if err != nil {
				wErr = err
				return
			}
			rData = b
		})
		dev.RunUntilIdle(1 << 20)
		ok := wErr == nil && bytes.Equal(rData, data)
		detail := "4KB write/read"
		if !ok {
			detail = fmt.Sprintf("mismatch (err %v)", wErr)
		}
		rep.Results = append(rep.Results, Result{Interface: disk.Name(), Pass: ok, Detail: detail})
	}
	return rep
}

// memTest walks a pattern and its complement through three windows of a
// memory (start, middle, end) and verifies read-back.
func memTest(dev *netfpga.Device, name string, size uint64,
	write func(uint64, []byte, func()),
	read func(uint64, int, func([]byte))) Result {

	const window = 1024
	bases := []uint64{0, size / 2, size - window}
	okAll := true
	for i, base := range bases {
		want := pattern(window, byte(0x80+i))
		write(base, want, nil)
		var got []byte
		read(base, window, func(b []byte) { got = append(got, b...) }) // b is the device's until the callback returns
		dev.RunUntilIdle(1 << 20)
		if !bytes.Equal(got, want) {
			okAll = false
			break
		}
	}
	detail := fmt.Sprintf("%d windows x %dB", len(bases), window)
	if !okAll {
		detail = "read-back mismatch"
	}
	return Result{Interface: name, Pass: okAll, Detail: detail}
}
