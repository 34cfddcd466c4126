package iotest

import (
	"strings"
	"testing"

	"repro/netfpga"
)

func TestSelfTestPassesOnSUME(t *testing.T) {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	p := New()
	if err := p.Build(dev); err != nil {
		t.Fatal(err)
	}
	rep := p.RunSelfTest(dev)
	if !rep.Pass() {
		t.Fatalf("self test failed:\n%s", rep)
	}
	// SUME: 4 ports + dma + 3 SRAM + 2 DRAM + 3 disks = 13 interfaces.
	if len(rep.Results) != 13 {
		t.Fatalf("%d interfaces tested, want 13:\n%s", len(rep.Results), rep)
	}
	if !strings.Contains(rep.String(), "PASS") {
		t.Fatal("report missing PASS lines")
	}
}

func TestSelfTestPassesOn1GCML(t *testing.T) {
	dev := netfpga.NewDevice(netfpga.OneGCML(), netfpga.Options{})
	p := New()
	if err := p.Build(dev); err != nil {
		t.Fatal(err)
	}
	rep := p.RunSelfTest(dev)
	if !rep.Pass() {
		t.Fatalf("self test failed:\n%s", rep)
	}
}

func TestSelfTestDetectsLossyPort(t *testing.T) {
	// With heavy bit errors injected, port tests must fail.
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{PortBER: 1e-3, Seed: 5})
	p := New()
	if err := p.Build(dev); err != nil {
		t.Fatal(err)
	}
	rep := p.RunSelfTest(dev)
	if rep.Pass() {
		t.Fatal("self test passed despite BER 1e-3")
	}
}

func TestUnifiedSimVsBehavioral(t *testing.T) {
	newDev := func() *netfpga.Device {
		return netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	}
	vectors := []netfpga.TestVector{
		{Port: 0, Data: pattern(64, 1)},
		{Port: 2, Data: pattern(333, 2)},
		{Port: netfpga.HostPort(3), Data: pattern(90, 3)},
	}
	if _, _, err := netfpga.RunUnified(func() netfpga.Project { return New() }, newDev, netfpga.TestCase{
		Name: "iotest_loop", Vectors: vectors,
	}); err != nil {
		t.Fatal(err)
	}
}
