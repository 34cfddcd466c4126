package main

import (
	"bytes"
	"cmp"
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/pkt"
	"repro/netfpga/projects/nic"
	"repro/netfpga/projects/switchp"
	"repro/netfpga/sweep"
	"repro/netfpga/sweep/shard"
	traffic "repro/netfpga/workload"
)

// probeRounds is how often every probe loop is repeated. A probe reads
// the fastest of its rounds: the primitive's uncontended cost, which is
// what repeats on a machine whose speed wanders.
const probeRounds = 5

// probes calls each layer's primitive directly in a loop, isolated from
// the engine, on inputs taken from the workload: its generator
// configuration, its (board, project) pairs and the records its cells
// produced. iters is the call count of a nanosecond-scale probe per
// round; microsecond-scale ones make a thousandth as many calls.
func probes(in *instance, rs *sweep.Results, iters int, timerNS int64) (map[string]float64, error) {
	out := map[string]float64{}
	for r := 0; r < probeRounds; r++ {
		round, err := probeRound(in, rs, iters, timerNS)
		if err != nil {
			return nil, err
		}
		for k, v := range round {
			if best, ok := out[k]; !ok || v < best {
				out[k] = v
			}
		}
	}
	return out, nil
}

func probeRound(in *instance, rs *sweep.Results, iters int, timerNS int64) (map[string]float64, error) {
	out := map[string]float64{}
	perCall := func(start time.Time, n int) float64 { return float64(time.Since(start)) / float64(n) }
	few := max(iters/1000, 3)

	// Event heap: 32 timers pending, each fired timer re-arms itself.
	{
		s := sim.New()
		timers := make([]*sim.Timer, 32)
		for i := range timers {
			i := i
			timers[i] = s.NewTimer(func() { timers[i].ScheduleAfter(32) })
			timers[i].ScheduleAfter(sim.Time(i + 1))
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			s.Step()
		}
		out["sim.timer_rearm_ns"] = perCall(start, iters)
	}
	{
		st := hw.NewStream("probe", 16)
		f := hw.NewFrame(make([]byte, 1514), 0)
		start := time.Now()
		for i := 0; i < iters; i++ {
			st.Push(hw.Beat{Frame: f, Off: 0, End: 32})
			st.Pop()
		}
		out["hw.stream_beat_ns"] = perCall(start, iters)
	}
	{
		var pool hw.FramePool
		pool.Put(pool.Get(60))
		start := time.Now()
		for i := 0; i < iters; i++ {
			pool.Put(pool.Get(60))
		}
		out["hw.pool_getput_ns"] = perCall(start, iters)
	}
	{
		cam := switchp.NewCAM(1<<16, 0)
		macs := make([]pkt.MAC, 1<<16)
		for i := range macs {
			macs[i] = pkt.MAC{2, 0, byte(i >> 16), byte(i >> 8), byte(i), 1}
			cam.Learn(macs[i], uint8(i%4), 0)
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			cam.Lookup(macs[i*7919%len(macs)], 0)
		}
		out["lib.flowtable_lookup_ns"] = perCall(start, iters)
	}
	{
		eth := &pkt.Ethernet{Dst: pkt.MAC{2, 0, 0, 0, 0, 2}, Src: pkt.MAC{2, 0, 0, 0, 0, 1}, EtherType: pkt.EtherTypeIPv4}
		ip := &pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, Src: pkt.IP4{10, 0, 0, 1}, Dst: pkt.IP4{10, 0, 0, 2}}
		udp := &pkt.UDP{SrcPort: 1, DstPort: 2}
		udp.SetNetworkLayerForChecksum(ip)
		payload := pkt.Payload(make([]byte, 18)) // a 60-byte frame
		buf := pkt.NewSerializeBuffer()
		opts := pkt.SerializeOptions{FixLengths: true, ComputeChecksums: true}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := pkt.SerializeTo(buf, opts, eth, ip, udp, payload); err != nil {
				return nil, err
			}
		}
		out["pkt.serialize_ns"] = perCall(start, iters)

		frame := append([]byte(nil), buf.Bytes()...)
		var e pkt.Ethernet
		var i4 pkt.IPv4
		var u pkt.UDP
		parser := pkt.NewParser(pkt.LayerTypeEthernet, &e, &i4, &u)
		decoded := make([]pkt.LayerType, 0, 4)
		start = time.Now()
		for i := 0; i < iters; i++ {
			if err := parser.Parse(frame, &decoded); err != nil {
				return nil, err
			}
		}
		out["pkt.parse_ns"] = perCall(start, iters)
	}
	{
		cfg := in.gen
		cfg.Seed = in.plan.BaseSeed
		g, err := traffic.New(cfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			g.NextHybrid() // NextView's draws when no flow is background
		}
		out["workload.next_ns"] = perCall(start, iters)
	}
	// Background model: what GenericMeasure offers per pacing interval,
	// with simulated time advancing (untimed) so batches retire.
	{
		dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{Fidelity: netfpga.FidelityHybrid})
		bg := dev.Background()
		var ns int64
		rounds := max(iters/64, 1)
		for i := 0; i < rounds; i++ {
			start := time.Now()
			for e := 0; e < bg.Ports(); e++ {
				bg.Offer(e, 12, 4080)
			}
			ns += max(int64(time.Since(start))-timerNS, 0)
			dev.RunFor(10 * netfpga.Microsecond)
		}
		out["core.bg_offer_ns"] = float64(ns) / float64(rounds*bg.Ports())
	}
	// Per-cell fixed cost: instantiate and build each (board, project)
	// the workload's cells use, and snapshot it.
	{
		type pair struct{ board, project string }
		seen := map[pair]bool{}
		var buildNS, snapNS time.Duration
		const rounds = 2
		for _, c := range in.plan.Cells {
			p := pair{c.Board, c.Project}
			if seen[p] || c.Project == "" || c.Spec.NoBuild || c.Spec.NoDevice || c.Spec.BoardFor != nil {
				continue
			}
			seen[p] = true
			entry, _ := sweep.ProjectEntry(c.Project)
			for i := 0; i < rounds; i++ {
				start := time.Now()
				board, _ := sweep.Board(cmp.Or(c.Board, "sume")) // the sweep's default board
				dev := netfpga.NewDevice(board, netfpga.Options{Seed: 1, NoHost: c.Spec.NoHost})
				if err := entry.New().Build(dev); err != nil {
					return nil, err
				}
				buildNS += time.Since(start)
				start = time.Now()
				dev.Snapshot()
				snapNS += time.Since(start)
			}
		}
		if n := float64(len(seen) * rounds); n > 0 { // mean over the pairs
			out["core.device_build_us"] = float64(buildNS) / n / 1e3
			out["core.snapshot_us"] = float64(snapNS) / n / 1e3
		}
	}
	// Host driver allocations: mallocs per Driver.Send, counted around
	// full-ring batches with the device draining in between.
	{
		dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
		if err := nic.New().Build(dev); err != nil {
			return nil, err
		}
		for i := 0; i < dev.Board.Ports; i++ {
			dev.Tap(i).SetCounting(true)
		}
		frame := make([]byte, 60)
		var calls, mallocs uint64
		var m0, m1 runtime.MemStats
		for calls < uint64(few) {
			runtime.ReadMemStats(&m0)
			for q := 0; ; q = (q + 1) % dev.Board.Ports {
				calls++
				if dev.Driver.Send(frame, q) != nil {
					break
				}
			}
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			dev.RunFor(100 * netfpga.Microsecond)
		}
		out["host.send_mallocs"] = float64(mallocs) / float64(calls)
	}
	// The run's own records through the session wire format and the
	// merger (which recomputes every digest).
	{
		recs := make([]sweep.CellRecord, len(rs.Cells))
		for i, cr := range rs.Cells {
			recs[i] = cr.Record()
		}
		rounds := max(few/len(recs), 1)
		n := rounds * len(recs)
		var buf bytes.Buffer
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for i := range recs {
				if err := shard.WriteFrame(&buf, shard.SessionFrame{Cell: &recs[i]}); err != nil {
					return nil, err
				}
			}
		}
		out["shard.encode_us_per_cell"] = perCall(start, n) / 1e3
		out["shard.bytes_per_cell"] = float64(buf.Len()) / float64(n)
		start = time.Now()
		for i := 0; i < n; i++ {
			var fr shard.SessionFrame
			if err := shard.ReadFrame(&buf, &fr); err != nil {
				return nil, err
			}
		}
		out["shard.decode_us_per_cell"] = perCall(start, n) / 1e3

		var ns time.Duration
		for r := 0; r < rounds; r++ {
			m := in.plan.Merger()
			start := time.Now()
			for _, rec := range recs {
				if _, err := m.Place(rec); err != nil {
					return nil, err
				}
			}
			ns += time.Since(start)
		}
		out["sweep.digest_merge_us_per_cell"] = float64(ns) / float64(n) / 1e3
	}
	return out, nil
}
