package projects

import (
	"math/rand/v2"
	"strings"
	"testing"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/lib"
	"repro/netfpga/projects/switchp"
)

// FuzzTwin drives generated traffic through every forwarding design on
// every board it builds on, against the sim and the twin: the shipped
// designs' TwinTests and a switch behind a user firewall.
func FuzzTwin(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		f.Add(seed)
	}
	designs := append(TwinTests(), TwinTest{Name: "firewalled_switch",
		New: func() netfpga.Project { return firewalledSwitch{switchp.New(switchp.Config{})} },
		Traffic: func(rng *rand.Rand, ports int) []netfpga.TestVector {
			return l2Traffic(rng, ports, false, []uint16{0x0800, 0x0800, 0x86DD})
		}})
	f.Fuzz(func(t *testing.T, seed uint64) {
		for _, d := range designs {
			for _, board := range netfpga.Boards() {
				if err := d.New().Build(netfpga.NewDevice(board, netfpga.Options{Seed: seed})); err != nil {
					continue // the design does not build on this board
				}
				if err := d.Run(board, seed); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestOSNTIsSimOnly: a design with stage modules that offer no decision
// has no twin, and the unified run says so.
func TestOSNTIsSimOnly(t *testing.T) {
	osnt, _ := ByName("osnt")
	_, _, err := netfpga.RunUnified(osnt.New, func() *netfpga.Device {
		return netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	}, netfpga.TestCase{Name: "osnt"})
	if err == nil || !strings.Contains(err.Error(), "sim-only") {
		t.Fatalf("err = %v, want sim-only", err)
	}
}

// firewalledSwitch is the reference switch behind a user firewall that
// blocks IPv6, as F2 and examples/custom-module build it.
type firewalledSwitch struct{ sw *switchp.Project }

func (firewalledSwitch) Name() string        { return "firewalled_switch" }
func (firewalledSwitch) Description() string { return "" }
func (p firewalledSwitch) Build(dev *netfpga.Device) error {
	notIPv6 := func(f *hw.Frame) bool {
		return len(f.Data) < 14 || uint16(f.Data[12])<<8|uint16(f.Data[13]) != 0x86DD
	}
	_, err := lib.BuildReference(dev, lib.PipelineConfig{Stages: []lib.Stage{
		lib.Filter("user_firewall", notIPv6, hw.Resources{LUTs: 650, FFs: 800}), p.sw.Stage()}})
	return err
}
