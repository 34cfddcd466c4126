package netfpga_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/host"
	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/lib"
	"repro/netfpga/projects/nic"
	"repro/netfpga/projects/switchp"
)

func TestHostPortEncoding(t *testing.T) {
	p := netfpga.HostPort(3)
	q, ok := netfpga.FromHostPort(p)
	if !ok || q != 3 {
		t.Fatalf("round-trip failed: %d %v", q, ok)
	}
	if _, ok := netfpga.FromHostPort(2); ok {
		t.Fatal("physical port decoded as host port")
	}
}

func TestDiffEquivalent(t *testing.T) {
	a := netfpga.PortOutput{0: {[]byte{1}, []byte{2}}, 1: {[]byte{3}}}
	b := netfpga.PortOutput{0: {[]byte{2}, []byte{1}}, 1: {[]byte{3}}}
	if d := netfpga.Diff(a, b); len(d) != 0 {
		t.Fatalf("reordered multiset should be equivalent: %v", d)
	}
}

func TestDiffDetectsMissing(t *testing.T) {
	a := netfpga.PortOutput{0: {[]byte{1}, []byte{2}}}
	b := netfpga.PortOutput{0: {[]byte{1}}}
	d := netfpga.Diff(a, b)
	if len(d) != 1 || !strings.Contains(d[0], "port 0") {
		t.Fatalf("diff = %v", d)
	}
}

func TestDiffDetectsWrongPort(t *testing.T) {
	a := netfpga.PortOutput{0: {[]byte{1}}}
	b := netfpga.PortOutput{1: {[]byte{1}}}
	if d := netfpga.Diff(a, b); len(d) != 2 {
		t.Fatalf("want two port discrepancies, got %v", d)
	}
}

func TestRunSimCollectsHostOutput(t *testing.T) {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	p := nic.New()
	if err := p.Build(dev); err != nil {
		t.Fatal(err)
	}
	out, err := netfpga.RunSim(dev, []netfpga.TestVector{
		{Port: 2, Data: make([]byte, 80)},
		{Port: netfpga.HostPort(1), Data: make([]byte, 90)},
	}, netfpga.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(out[netfpga.HostPort(2)]) != 1 {
		t.Fatalf("host queue 2 got %d", len(out[netfpga.HostPort(2)]))
	}
	if len(out[1]) != 1 {
		t.Fatalf("port 1 got %d", len(out[1]))
	}
}

func TestRunSimHonoursVectorTiming(t *testing.T) {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	p := nic.New()
	if err := p.Build(dev); err != nil {
		t.Fatal(err)
	}
	// Two frames to the same host queue at different times must both
	// arrive (ordering inside a port is preserved by the pipeline).
	out, err := netfpga.RunSim(dev, []netfpga.TestVector{
		{Port: 0, Data: []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0}, At: 100 * netfpga.Microsecond},
		{Port: 0, Data: []byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0}, At: 200 * netfpga.Microsecond},
	}, netfpga.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	host := out[netfpga.HostPort(0)]
	if len(host) != 2 || host[0][0] != 1 || host[1][0] != 2 {
		t.Fatalf("host outputs wrong: %v", host)
	}
}

// TestRunUnifiedReportsRefusedHostSends: a host vector the driver
// refuses fails the case with the driver's error, naming the vector and
// its queue, instead of vanishing from the sim output.
func TestRunUnifiedReportsRefusedHostSends(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    netfpga.TestVector
		want error
		text string
	}{
		{"jumbo", netfpga.TestVector{Port: netfpga.HostPort(0), Data: make([]byte, 9601)}, host.ErrFrameSize,
			"host vector 1 on queue 0: host: frame size out of range"},
		{"queue8", netfpga.TestVector{Port: netfpga.HostPort(hw.MaxHostPorts), Data: make([]byte, 60)}, host.ErrQueue,
			"host vector 1 on queue 8: host: queue out of range"},
	} {
		vectors := []netfpga.TestVector{{Port: 0, Data: make([]byte, 60)}, tc.v}
		_, _, err := netfpga.RunUnified(func() netfpga.Project { return nic.New() }, sume,
			netfpga.TestCase{Name: tc.name, Vectors: vectors})
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.text) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.text)
		}
	}
}

// TestRunUnifiedOrdersByTime: the twin takes vectors in time order,
// not slice order. Learning depends on order: vector times force "learn
// then unicast" even though the slice is shuffled.
func TestRunUnifiedOrdersByTime(t *testing.T) {
	macA := []byte{2, 0, 0, 0, 0, 0xA}
	macB := []byte{2, 0, 0, 0, 0, 0xB}
	mk := func(dst, src []byte) []byte {
		f := make([]byte, 60)
		copy(f[0:6], dst)
		copy(f[6:12], src)
		f[12], f[13] = 0x88, 0xB5
		return f
	}
	vectors := []netfpga.TestVector{
		{Port: 1, Data: mk(macA, macB), At: 2 * netfpga.Millisecond}, // after learn: unicast
		{Port: 0, Data: mk(macB, macA), At: 1 * netfpga.Millisecond}, // learn A first
	}
	_, out, err := netfpga.RunUnified(func() netfpga.Project { return switchp.New(switchp.Config{}) }, sume,
		netfpga.TestCase{Name: "ordered", Vectors: vectors})
	if err != nil {
		t.Fatal(err)
	}
	// First processed: A->B floods (3 copies); second: B->A unicast to
	// port 0 only.
	if len(out[0]) != 1 || len(out[1]) != 1 || len(out[2]) != 1 || len(out[3]) != 1 {
		t.Fatalf("twin output %v, want the flood on 1-3 and the unicast on 0", out)
	}
}

// TestRunUnifiedCatchesDivergence: a design whose datapath loses a frame
// behind its decisions fails equivalence. Its lookup forwards every
// frame, but its output queues hold less than the larger frame.
func TestRunUnifiedCatchesDivergence(t *testing.T) {
	_, _, err := netfpga.RunUnified(func() netfpga.Project { return lossy{} }, sume, netfpga.TestCase{
		Name: "lossy",
		Vectors: []netfpga.TestVector{
			{Port: 0, Data: make([]byte, 70)},
			{Port: 0, Data: make([]byte, 1000), At: 100 * netfpga.Microsecond},
		},
	})
	if err == nil {
		t.Fatal("divergence not detected")
	}
	if !strings.Contains(err.Error(), "divergence") || !strings.Contains(err.Error(), "port 1") {
		t.Fatalf("err = %v", err)
	}
}

func sume() *netfpga.Device { return netfpga.NewDevice(netfpga.SUME(), netfpga.Options{}) }

// lossy is a reference pipeline whose one lookup sends port 0's frames
// to port 1 through 512-byte output queues.
type lossy struct{}

func (lossy) Name() string        { return "lossy" }
func (lossy) Description() string { return "" }
func (lossy) Build(d *netfpga.Device) error {
	toPort1 := func(f *hw.Frame) lib.Verdict {
		f.Meta.DstPorts = hw.PortMask(1)
		return lib.Forward
	}
	_, err := lib.BuildReference(d, lib.PipelineConfig{
		Stages:     []lib.Stage{lib.Lookup("to_port1", toPort1, 1, hw.Resources{})},
		QueueBytes: 512,
	})
	return err
}
