package osnt

import (
	"bytes"
	"testing"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/pcap"
	"repro/netfpga/pkt"
)

// build returns a SUME device running OSNT with port 0 wired to port 1
// through an external "device under test" cable that simply forwards
// (zero processing delay beyond the wire).
func build(t *testing.T) (*netfpga.Device, *OSNT) {
	t.Helper()
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	p := New()
	if err := p.Build(dev); err != nil {
		t.Fatal(err)
	}
	tap0, tap1 := dev.Tap(0), dev.Tap(1)
	tap0.OnRx = func(f *hw.Frame, _ netfpga.Time) { tap1.Send(f.Data) }
	dev.Tap(2)
	dev.Tap(3)
	return dev, p.Instance()
}

func testTemplate(size int) []byte {
	frame, err := pkt.BuildUDP(pkt.UDPSpec{
		SrcMAC: pkt.MustMAC("02:05:00:00:00:01"), DstMAC: pkt.MustMAC("02:05:00:00:00:02"),
		SrcIP: pkt.MustIP4("192.0.2.1"), DstIP: pkt.MustIP4("192.0.2.2"),
		SrcPort: 5000, DstPort: 5001,
		Payload: make([]byte, size-42),
	})
	if err != nil {
		panic(err)
	}
	return frame
}

func TestCBRGeneratorCountAndRate(t *testing.T) {
	dev, o := build(t)
	const n = 1000
	if err := o.Configure(0, TrafficSpec{
		Template: testTemplate(300), Count: n, Mode: CBR, RateMbps: 5000, Stamp: true,
	}); err != nil {
		t.Fatal(err)
	}
	o.Start(0)
	// 1000 frames x 324B wire at 5 Gb/s ≈ 518 us.
	dev.RunFor(2 * netfpga.Millisecond)
	if got := o.Generated(0); got != n {
		t.Fatalf("generated %d, want %d", got, n)
	}
	st := o.Stats(1)
	if st.Pkts != n {
		t.Fatalf("monitor saw %d, want %d", st.Pkts, n)
	}
	// Achieved rate: n frames of (300+24)B in the observed window must be
	// within 1% of 5 Gb/s.
	// Frames depart every wire-time at exactly the configured rate, so
	// receiving n frames inside 2x the nominal duration is the check.
}

func TestCBRPrecision(t *testing.T) {
	dev, o := build(t)
	const n = 500
	const rate = 2000.0 // Mbps
	tpl := testTemplate(500)
	if err := o.Configure(0, TrafficSpec{Template: tpl, Count: n, Mode: CBR, RateMbps: rate, Stamp: true}); err != nil {
		t.Fatal(err)
	}
	o.Start(0)
	dev.RunFor(10 * netfpga.Millisecond)
	st := o.Stats(1)
	if st.Pkts != n {
		t.Fatalf("got %d frames", st.Pkts)
	}
	// Departure gap: (500+24)*8 bits / 2Gb/s = 2096 ns. The capture
	// window (first to last) should be (n-1)*gap within 0.1%.
	var capBuf bytes.Buffer
	if _, err := o.WriteCapture(1, &capBuf); err != nil {
		t.Fatal(err)
	}
	pkts, err := pcap.ReadAll(bytes.NewReader(capBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != n {
		t.Fatalf("capture has %d packets", len(pkts))
	}
	span := pkts[len(pkts)-1].TS - pkts[0].TS
	wantSpan := netfpga.Time(n-1) * 2096 * netfpga.Nanosecond
	err100 := float64(span-wantSpan) / float64(wantSpan) * 100
	if err100 < -0.1 || err100 > 0.1 {
		t.Fatalf("CBR span error %.3f%% (span %v, want %v)", err100, span, wantSpan)
	}
}

func TestLatencyMeasurementAccuracy(t *testing.T) {
	dev, o := build(t)
	const n = 200
	if err := o.Configure(0, TrafficSpec{
		Template: testTemplate(300), Count: n, Mode: CBR, RateMbps: 1000, Stamp: true,
	}); err != nil {
		t.Fatal(err)
	}
	o.Start(0)
	dev.RunFor(5 * netfpga.Millisecond)
	st := o.Stats(1)
	if st.LatSamples != n {
		t.Fatalf("latency samples %d, want %d", st.LatSamples, n)
	}
	// The true path: timestamper -> MAC tx (300B wire time ~259ns) ->
	// 5ns wire -> tap relay -> 5ns wire -> MAC rx -> monitor. Latency
	// must be stable: jitter (max-min) within a few clock quanta.
	if st.LatMin == 0 || st.LatMax == 0 {
		t.Fatal("latency extremes not recorded")
	}
	jitter := st.LatMax - st.LatMin
	if jitter > 50*netfpga.Nanosecond {
		t.Fatalf("jitter %v too high for a constant path", jitter)
	}
	if st.LatMean < 500*netfpga.Nanosecond || st.LatMean > 3*netfpga.Microsecond {
		t.Fatalf("mean latency %v implausible for the loop", st.LatMean)
	}
	// Histogram mass equals sample count.
	var mass uint64
	for _, c := range st.Histogram {
		mass += c
	}
	if mass != n {
		t.Fatalf("histogram mass %d != %d", mass, n)
	}
}

func TestPoissonMeanRate(t *testing.T) {
	dev, o := build(t)
	const n = 2000
	if err := o.Configure(0, TrafficSpec{
		Template: testTemplate(200), Count: n, Mode: Poisson, RateMbps: 4000, Seed: 11, Stamp: true,
	}); err != nil {
		t.Fatal(err)
	}
	o.Start(0)
	dev.RunFor(10 * netfpga.Millisecond)
	st := o.Stats(1)
	if st.Pkts != n {
		t.Fatalf("got %d", st.Pkts)
	}
	var capBuf bytes.Buffer
	o.WriteCapture(1, &capBuf)
	pkts, _ := pcap.ReadAll(bytes.NewReader(capBuf.Bytes()))
	span := pkts[len(pkts)-1].TS - pkts[0].TS
	// Mean gap should be within 10% of (200+24)*8/4Gb/s = 448ns.
	meanGap := float64(span) / float64(n-1)
	want := 448e3 // ps
	if meanGap < want*0.9 || meanGap > want*1.1 {
		t.Fatalf("Poisson mean gap %.0fps, want ~%.0fps", meanGap, want)
	}
	// And it must actually be bursty: variance of gaps far from zero.
	var gaps []float64
	for i := 1; i < len(pkts); i++ {
		gaps = append(gaps, float64(pkts[i].TS-pkts[i-1].TS))
	}
	var sum, sq float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	for _, g := range gaps {
		sq += (g - mean) * (g - mean)
	}
	cv := (sq / float64(len(gaps))) / (mean * mean) // CV^2 ≈ 1 for Poisson
	if cv < 0.5 {
		t.Fatalf("gap CV^2 = %.2f, too regular for Poisson", cv)
	}
}

func TestReplayGaps(t *testing.T) {
	dev, o := build(t)
	gaps := []netfpga.Time{
		1 * netfpga.Microsecond, 3 * netfpga.Microsecond, 500 * netfpga.Nanosecond,
	}
	if err := o.Configure(0, TrafficSpec{
		Template: testTemplate(100), Count: 4, Mode: Replay, Gaps: gaps, Stamp: true,
	}); err != nil {
		t.Fatal(err)
	}
	o.Start(0)
	dev.RunFor(netfpga.Millisecond)
	var capBuf bytes.Buffer
	o.WriteCapture(1, &capBuf)
	pkts, _ := pcap.ReadAll(bytes.NewReader(capBuf.Bytes()))
	if len(pkts) != 4 {
		t.Fatalf("replayed %d frames", len(pkts))
	}
	for i := 1; i < 4; i++ {
		got := pkts[i].TS - pkts[i-1].TS
		want := gaps[(i-1)%len(gaps)]
		diff := got - want
		if diff < -100*netfpga.Nanosecond || diff > 100*netfpga.Nanosecond {
			t.Fatalf("gap %d: %v, want %v", i, got, want)
		}
	}
}

func TestStopAndReconfigure(t *testing.T) {
	dev, o := build(t)
	o.Configure(0, TrafficSpec{Template: testTemplate(100), Mode: CBR, RateMbps: 1000, Stamp: true})
	o.Start(0)
	dev.RunFor(100 * netfpga.Microsecond)
	o.Stop(0)
	sent := o.Generated(0)
	if sent == 0 {
		t.Fatal("nothing sent before stop")
	}
	dev.RunFor(100 * netfpga.Microsecond)
	if o.Generated(0) > sent+1 {
		t.Fatal("generator kept sending after stop")
	}
	o.ResetStats(1)
	if o.Stats(1).Pkts != 0 {
		t.Fatal("reset did not clear stats")
	}
}

func TestConfigureValidation(t *testing.T) {
	_, o := build(t)
	if err := o.Configure(9, TrafficSpec{}); err == nil {
		t.Fatal("out-of-range port accepted")
	}
	if err := o.Configure(0, TrafficSpec{Mode: CBR}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if err := o.Configure(0, TrafficSpec{Mode: Replay}); err == nil {
		t.Fatal("replay without gaps accepted")
	}
}

func TestMonitorRegisters(t *testing.T) {
	dev, o := build(t)
	o.Configure(0, TrafficSpec{Template: testTemplate(100), Count: 10, Mode: CBR, RateMbps: 1000, Stamp: true})
	o.Start(0)
	dev.RunFor(netfpga.Millisecond)
	pkts, err := dev.Driver.ReadCounter64("osnt_mon1", "pkts")
	if err != nil {
		t.Fatal(err)
	}
	if pkts != 10 {
		t.Fatalf("register pkts = %d", pkts)
	}
	latMax, err := dev.Driver.RegReadName("osnt_mon1", "lat_max_ns")
	if err != nil || latMax == 0 {
		t.Fatalf("lat_max_ns = %d, err %v", latMax, err)
	}
}

// TestCaptureSpanMatchesPcapRoundTrip checks the accessor against the
// path it replaces in the T6 measure: serialise the capture ring to a
// nanosecond pcap, parse it back, take the first and last timestamps. The
// datapath runs at 156.25 MHz here so arrivals fall on 6.4 ns edges and
// the pcap's truncation to whole nanoseconds is exercised.
func TestCaptureSpanMatchesPcapRoundTrip(t *testing.T) {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{ClockMHz: 156.25})
	p := New()
	if err := p.Build(dev); err != nil {
		t.Fatal(err)
	}
	tap0, tap1 := dev.Tap(0), dev.Tap(1)
	tap0.OnRx = func(f *hw.Frame, _ netfpga.Time) { tap1.Send(f.Data) }
	o := p.Instance()
	if first, last, n := o.CaptureSpan(1); first != 0 || last != 0 || n != 0 {
		t.Fatalf("empty capture reports span %v..%v over %d frames", first, last, n)
	}
	const n = 300
	if err := o.Configure(0, TrafficSpec{
		Template: testTemplate(200), Count: n, Mode: Poisson, RateMbps: 3000, Seed: 5, Stamp: true,
	}); err != nil {
		t.Fatal(err)
	}
	o.Start(0)
	dev.RunFor(5 * netfpga.Millisecond)

	var capBuf bytes.Buffer
	if _, err := o.WriteCapture(1, &capBuf); err != nil {
		t.Fatal(err)
	}
	pkts, err := pcap.ReadAll(bytes.NewReader(capBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != n {
		t.Fatalf("capture has %d packets, want %d", len(pkts), n)
	}
	sub := false
	for _, c := range o.mons[1].capture {
		sub = sub || c.at%netfpga.Nanosecond != 0
	}
	if !sub {
		t.Fatal("no arrival off the nanosecond grid: truncation is not exercised")
	}
	first, last, count := o.CaptureSpan(1)
	if first != pkts[0].TS || last != pkts[n-1].TS || count != n {
		t.Fatalf("CaptureSpan = %v..%v over %d frames, pcap round trip gives %v..%v over %d",
			first, last, count, pkts[0].TS, pkts[n-1].TS, n)
	}
}
