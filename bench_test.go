// Package repro's top-level benchmarks regenerate every experiment of
// the reproduction (one benchmark per table/figure `nf-bench -list` prints,
// reporting each experiment's headline metrics), plus micro-benchmarks
// of the hot paths the simulated datapath is built on.
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/netfpga"
	"repro/netfpga/fleet"
	"repro/netfpga/hw"
	"repro/netfpga/pkt"
	"repro/netfpga/projects/router"
	"repro/netfpga/projects/switchp"
	"repro/netfpga/sweep"
	"repro/netfpga/workload"
)

// benchExperiment runs one experiment per iteration — through a
// sequential fleet runner, so per-iteration cost stays comparable with
// historic numbers — and reports its metrics through the benchmark
// interface.
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	runner := fleet.Sequential()
	var tables []*experiments.Table
	for i := 0; i < b.N; i++ {
		tables = e.Run(runner)
	}
	for _, t := range tables {
		for k, v := range t.Metrics {
			// Benchmark metric units must not contain whitespace.
			unit := strings.ReplaceAll(t.ID+"/"+k, " ", "_")
			b.ReportMetric(v, unit)
		}
	}
}

func BenchmarkF1_BoardInventory(b *testing.B) { benchExperiment(b, "F1") }
func BenchmarkT1_SerialIO(b *testing.B)       { benchExperiment(b, "T1") }
func BenchmarkT2_Memory(b *testing.B)         { benchExperiment(b, "T2") }
func BenchmarkT3_HostDMA(b *testing.B)        { benchExperiment(b, "T3") }
func BenchmarkT4_Switch(b *testing.B)         { benchExperiment(b, "T4") }
func BenchmarkT5_Router(b *testing.B)         { benchExperiment(b, "T5") }
func BenchmarkT6_OSNT(b *testing.B)           { benchExperiment(b, "T6") }
func BenchmarkT7_BlueSwitch(b *testing.B)     { benchExperiment(b, "T7") }
func BenchmarkT8_Utilization(b *testing.B)    { benchExperiment(b, "T8") }
func BenchmarkF2_CustomModule(b *testing.B)   { benchExperiment(b, "F2") }
func BenchmarkT9_Standalone(b *testing.B)     { benchExperiment(b, "T9") }

// ---- fleet executor scaling ----

// benchFleet runs the canonical 8-device switch suite on the given
// worker count; comparing the Sequential and Parallel variants gives
// the fleet's wall-clock speedup on this machine.
func benchFleet(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		res := (&fleet.Runner{Workers: workers, BaseSeed: 42}).RunAll(
			context.Background(), experiments.SwitchFleetJobs(8, 100*hw.Microsecond))
		for _, r := range res {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

func BenchmarkFleet8SwitchesSequential(b *testing.B) { benchFleet(b, 1) }
func BenchmarkFleet8SwitchesParallel(b *testing.B)   { benchFleet(b, 0) }

// BenchmarkFleetTailHeavyBatch runs the canonical tail-heavy batch (15
// short devices + one long 100G device, last) on 8 workers. It is
// recorded in bench/baseline.txt and gated by CI; on single-core
// hardware only the determinism contract is exercised.
func BenchmarkFleetTailHeavyBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := &fleet.Runner{Workers: 8, BaseSeed: 42}
		res := r.RunAll(context.Background(), experiments.TailHeavyJobs(hw.Millisecond))
		for _, rr := range res {
			if rr.Err != nil {
				b.Fatal(rr.Err)
			}
		}
	}
}

// benchBackgroundHeavy runs one background-heavy sweep cell per
// iteration — reference switch, 63 of 64 flows background, 20 ms
// window — at the given fidelity, and reports delivered frames per
// wall-clock second. The full/hybrid pair is the tentpole's headline:
// hybrid advances background traffic analytically and must deliver at
// least 5x the full-fidelity frames/sec on this scenario (benchgate's
// -speedup flag gates the ratio in CI; TestHybridCalibration gates
// that the speed costs no frames, bytes or bounded-error latency).
func benchBackgroundHeavy(b *testing.B, fid string) {
	spec := sweep.Spec{
		Name:       "BGH",
		Boards:     []string{"sume"},
		Projects:   []string{"reference_switch"},
		Workloads:  []sweep.Workload{{Name: "bg63of64", Flows: 64, Background: 63}},
		Seeds:      []uint64{1},
		Fidelities: []string{fid},
		WindowUS:   20000,
	}
	groups := []sweep.Group{{Spec: spec, Measure: sweep.GenericMeasure}}
	var frames float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := sweep.RunGroups(context.Background(), &fleet.Runner{Workers: 1}, groups, "")
		if err != nil {
			b.Fatal(err)
		}
		for j := range rs.Cells {
			if rs.Cells[j].Err != "" {
				b.Fatalf("cell %s failed: %s", rs.Cells[j].Cell.Key, rs.Cells[j].Err)
			}
			frames += rs.Cells[j].Values["rx_frames"]
		}
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(frames/s, "frames/sec")
	}
}

func BenchmarkBackgroundHeavyFull(b *testing.B)   { benchBackgroundHeavy(b, "full") }
func BenchmarkBackgroundHeavyHybrid(b *testing.B) { benchBackgroundHeavy(b, "hybrid") }

// ---- micro-benchmarks of the substrate hot paths ----

func BenchmarkPacketFullDecode(b *testing.B) {
	frame, err := pkt.BuildUDP(pkt.UDPSpec{
		SrcMAC: pkt.MustMAC("02:00:00:00:00:01"), DstMAC: pkt.MustMAC("02:00:00:00:00:02"),
		SrcIP: pkt.MustIP4("10.0.0.1"), DstIP: pkt.MustIP4("10.0.0.2"),
		SrcPort: 1, DstPort: 2, Payload: make([]byte, 64),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pkt.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketParserZeroAlloc(b *testing.B) {
	frame, _ := pkt.BuildUDP(pkt.UDPSpec{
		SrcMAC: pkt.MustMAC("02:00:00:00:00:01"), DstMAC: pkt.MustMAC("02:00:00:00:00:02"),
		SrcIP: pkt.MustIP4("10.0.0.1"), DstIP: pkt.MustIP4("10.0.0.2"),
		SrcPort: 1, DstPort: 2, Payload: make([]byte, 64),
	})
	var (
		eth pkt.Ethernet
		ip  pkt.IPv4
		udp pkt.UDP
	)
	p := pkt.NewParser(pkt.LayerTypeEthernet, &eth, &ip, &udp)
	decoded := make([]pkt.LayerType, 0, 4)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Parse(frame, &decoded); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketSerialize(b *testing.B) {
	ipl := &pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP,
		Src: pkt.MustIP4("10.0.0.1"), Dst: pkt.MustIP4("10.0.0.2")}
	udp := &pkt.UDP{SrcPort: 1, DstPort: 2}
	udp.SetNetworkLayerForChecksum(ipl)
	eth := &pkt.Ethernet{Dst: pkt.MustMAC("02:00:00:00:00:02"),
		Src: pkt.MustMAC("02:00:00:00:00:01"), EtherType: pkt.EtherTypeIPv4}
	payload := pkt.Payload(make([]byte, 64))
	buf := pkt.NewSerializeBuffer()
	opts := pkt.SerializeOptions{FixLengths: true, ComputeChecksums: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := pkt.SerializeTo(buf, opts, eth, ipl, udp, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChecksum1500(b *testing.B) {
	data := make([]byte, 1500)
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		pkt.Checksum(data, 0)
	}
}

func BenchmarkFCS1500(b *testing.B) {
	data := make([]byte, 1500)
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		pkt.FCS(data)
	}
}

func BenchmarkLPMLookup64k(b *testing.B) {
	fib := router.NewTrie()
	for i := 0; i < 65536; i++ {
		fib.Insert(router.Route{
			Prefix: pkt.Prefix{Addr: pkt.IP4{10, byte(i >> 8), byte(i), 0}, Bits: 24},
			Port:   uint8(i % 4),
		})
	}
	addrs := make([]pkt.IP4, 1024)
	rng := sim.NewRand(5)
	for i := range addrs {
		addrs[i] = pkt.IP4{10, byte(rng.Intn(256)), byte(rng.Intn(256)), 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := fib.Lookup(addrs[i%len(addrs)]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkCAMLookup(b *testing.B) {
	cam := switchp.NewCAM(16384, 0)
	macs := make([]pkt.MAC, 4096)
	for i := range macs {
		macs[i] = pkt.MAC{2, 0, byte(i >> 16), byte(i >> 8), byte(i), 1}
		cam.Learn(macs[i], uint8(i%4), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cam.Lookup(macs[i%len(macs)], 0); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkStreamPushPop(b *testing.B) {
	s := hw.NewStream("bench", 64)
	f := hw.NewFrame(make([]byte, 1514), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Push(hw.Beat{Frame: f, Off: 0, End: 32})
		s.Pop()
	}
}

func BenchmarkSimEventThroughput(b *testing.B) {
	s := sim.New()
	var tm *sim.Timer
	n := 0
	tm = s.NewTimer(func() {
		n++
		if n < b.N {
			tm.ScheduleAfter(1)
		}
	})
	tm.ScheduleAfter(1)
	b.ResetTimer()
	s.Drain(0)
	if n != b.N {
		b.Fatalf("ran %d events", n)
	}
}

func BenchmarkSwitchIMIXWorkload(b *testing.B) {
	// Realistic-mix traffic through the reference switch: the per-frame
	// simulation cost under the IMIX size distribution.
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	p := switchp.New(switchp.Config{})
	if err := p.Build(dev); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		dev.Tap(i)
	}
	gen, err := workload.New(workload.Config{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	// Counting taps + NextView: the benchmark measures the simulation,
	// not the harness's capture copies and per-frame allocations.
	for i := 0; i < 4; i++ {
		dev.Tap(i).SetCounting(true)
	}
	tap := dev.Tap(0)
	var sent uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := gen.NextView()
		tap.Send(frame)
		sent += uint64(len(frame))
		if i%128 == 127 {
			dev.RunFor(128 * 1300 * hw.Nanosecond) // drain at ~line rate
		}
	}
	dev.RunUntilIdle(0)
	b.SetBytes(int64(sent / uint64(b.N)))
}

func BenchmarkMulticastFlood(b *testing.B) {
	// Broadcast replication through the reference switch: every frame
	// fans out to the three non-source ports via the zero-copy
	// shared-buffer path in OutputQueues.route. Steady state must not
	// allocate: copies are pooled shells sharing the frozen payload,
	// and -benchmem proves it.
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	p := switchp.New(switchp.Config{})
	if err := p.Build(dev); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		dev.Tap(i)
	}
	tap := dev.Tap(0)
	frame, err := pkt.Serialize(pkt.SerializeOptions{},
		&pkt.Ethernet{Dst: pkt.MustMAC("ff:ff:ff:ff:ff:ff"),
			Src: pkt.MustMAC("02:00:00:00:00:01"), EtherType: 0x88B5},
		pkt.Payload(make([]byte, 110)))
	if err != nil {
		b.Fatal(err)
	}
	// Warm the pool (shells, refcounts, rings) before measuring.
	for i := 0; i < 512; i++ {
		tap.Send(frame)
		if i%64 == 63 {
			dev.RunFor(100 * hw.Microsecond)
		}
	}
	dev.RunUntilIdle(0)
	for i := 0; i < 4; i++ {
		dev.Tap(i).Received()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tap.Send(frame)
		if i%64 == 63 {
			dev.RunFor(64*130*hw.Nanosecond + hw.Microsecond)
			for j := 1; j < 4; j++ {
				dev.Tap(j).Received()
			}
		}
	}
	dev.RunUntilIdle(0)
}

func BenchmarkDatapathBurst10G(b *testing.B) {
	// Full-size frames through the reference switch with counting taps:
	// the workload where frame-burst batching pays most — a 1514-byte
	// frame is 48 bus beats, so the datapath clock spends long windows
	// inside one frame where every module's per-edge decision repeats.
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	p := switchp.New(switchp.Config{})
	if err := p.Build(dev); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		dev.Tap(i).SetCounting(true)
	}
	tap := dev.Tap(0)
	frame, err := pkt.Serialize(pkt.SerializeOptions{},
		&pkt.Ethernet{Dst: pkt.MustMAC("02:00:00:00:00:02"),
			Src: pkt.MustMAC("02:00:00:00:00:01"), EtherType: 0x88B5},
		pkt.Payload(make([]byte, 1500)))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tap.Send(frame)
		if i%64 == 63 {
			// 64 x ~1.23us of 10G wire time plus pipeline slack.
			dev.RunFor(64*1300*hw.Nanosecond + hw.Microsecond)
		}
	}
	dev.RunUntilIdle(0)
}

func BenchmarkSwitchMillionFlows(b *testing.B) {
	// CAM behaviour at the paper's flow scale: a million learned MACs in
	// the open-addressing arena, random lookups with zero allocations.
	const flows = 1 << 20
	cam := switchp.NewCAM(flows, 0)
	macs := make([]pkt.MAC, flows)
	for i := range macs {
		v := uint64(i)*0x9e3779b9 + 1
		macs[i] = pkt.MAC{2, byte(v >> 32), byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
		cam.Learn(macs[i], uint8(i%4), 0)
	}
	if cam.Len() != flows {
		b.Fatalf("learned %d flows, want %d", cam.Len(), flows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cam.Lookup(macs[(uint64(i)*0x9e3779b9)%flows], 0); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkDatapathMinFrames10G(b *testing.B) {
	// End-to-end cost of simulating one minimum-size frame through the
	// full reference switch at 10G line rate.
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	p := switchp.New(switchp.Config{})
	if err := p.Build(dev); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		dev.Tap(i)
	}
	tap := dev.Tap(0)
	frame, err := pkt.Serialize(pkt.SerializeOptions{},
		&pkt.Ethernet{Dst: pkt.MustMAC("02:00:00:00:00:02"),
			Src: pkt.MustMAC("02:00:00:00:00:01"), EtherType: 0x88B5},
		pkt.Payload(make([]byte, 46)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tap.Send(frame)
		if i%256 == 255 {
			// Let the 256-frame burst traverse: 256 x 67.2ns of wire
			// time plus pipeline slack.
			dev.RunFor(256*68*hw.Nanosecond + hw.Microsecond)
		}
	}
	dev.RunUntilIdle(0)
}
