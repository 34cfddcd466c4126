package workload

import (
	"bytes"
	"testing"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/pkt"
	"repro/netfpga/projects/osnt"
)

func TestGeneratorDeterministic(t *testing.T) {
	mk := func() [][]byte {
		g, err := New(Config{Seed: 42, Flows: 8})
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for i := 0; i < 50; i++ {
			out = append(out, g.Next())
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("frame %d differs across identical seeds", i)
		}
	}
}

func TestGeneratorFramesValid(t *testing.T) {
	g, err := New(Config{Seed: 7, Flows: 16})
	if err != nil {
		t.Fatal(err)
	}
	flowSet := map[flow]bool{}
	for _, fl := range g.flows {
		flowSet[fl] = true
	}
	if len(flowSet) < 12 {
		t.Fatalf("only %d distinct flows of 16 requested", len(flowSet))
	}
	seen := map[flow]bool{}
	for i := 0; i < 300; i++ {
		frame := g.Next()
		p, err := pkt.Decode(frame)
		if err != nil || p.UDP == nil {
			t.Fatalf("frame %d invalid: %v", i, err)
		}
		if !p.IPv4.VerifyChecksum(p.Eth.LayerPayload()) {
			t.Fatalf("frame %d bad IP checksum", i)
		}
		fl := flow{src: p.IPv4.Src, dst: p.IPv4.Dst, sport: p.UDP.SrcPort, dport: p.UDP.DstPort,
			srcMAC: p.Eth.Src, dstMAC: p.Eth.Dst}
		if !flowSet[fl] {
			t.Fatalf("frame %d from unknown flow %+v", i, fl)
		}
		seen[fl] = true
		if len(frame) < 60 {
			t.Fatalf("frame %d under minimum", i)
		}
	}
	if len(seen) < len(flowSet)/2 {
		t.Fatalf("only %d flows exercised", len(seen))
	}
}

func TestGeneratorSizeMix(t *testing.T) {
	g, err := New(Config{Seed: 3, Sizes: []SizeWeight{{60, 1}, {1514, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	small, large := 0, 0
	for i := 0; i < 1000; i++ {
		switch len(g.Next()) {
		case 60:
			small++
		case 1514:
			large++
		default:
			t.Fatal("unexpected size")
		}
	}
	if small < 400 || large < 400 {
		t.Fatalf("mix skewed: %d/%d", small, large)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Sizes: []SizeWeight{{10, 1}}}); err == nil {
		t.Fatal("undersized frames accepted")
	}
	if _, err := New(Config{Sizes: []SizeWeight{{100, 0}}}); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestWritePcapSpacing(t *testing.T) {
	g, _ := New(Config{Seed: 1, Sizes: FixedSize(500)})
	var buf bytes.Buffer
	if err := g.WritePcap(&buf, 10, 1000); err != nil {
		t.Fatal(err)
	}
	trace, err := osnt.TraceFromPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 10 {
		t.Fatalf("trace has %d packets", len(trace))
	}
	// 524B wire at 1 Gb/s = 4.192us per frame.
	want := hw.Time(4192) * hw.Nanosecond
	for i := 1; i < len(trace); i++ {
		if trace[i].Gap != want {
			t.Fatalf("gap %d = %v, want %v", i, trace[i].Gap, want)
		}
	}
}

func TestWorkloadThroughOSNTReplay(t *testing.T) {
	// End-to-end composition: synthesize an IMIX workload, write pcap,
	// replay it through OSNT, verify the monitor sees every frame.
	g, _ := New(Config{Seed: 5})
	var buf bytes.Buffer
	const n = 200
	if err := g.WritePcap(&buf, n, 5000); err != nil {
		t.Fatal(err)
	}
	trace, err := osnt.TraceFromPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}

	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	proj := osnt.New()
	if err := proj.Build(dev); err != nil {
		t.Fatal(err)
	}
	tap0, tap1 := dev.Tap(0), dev.Tap(1)
	tap0.OnRx = func(f *hw.Frame, _ netfpga.Time) { tap1.Send(f.Data) }
	tester := proj.Instance()
	if err := tester.Configure(0, osnt.TrafficSpec{
		Trace: trace, Count: n, Mode: osnt.Replay,
	}); err != nil {
		t.Fatal(err)
	}
	tester.Start(0)
	dev.RunFor(10 * netfpga.Millisecond)
	st := tester.Stats(1)
	if st.Pkts != n {
		t.Fatalf("monitor saw %d of %d replayed frames", st.Pkts, n)
	}
}
