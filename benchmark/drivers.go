package main

import (
	"repro/netfpga"
	"repro/netfpga/fleet"
	"repro/netfpga/pkt"
	"repro/netfpga/sweep"
	traffic "repro/netfpga/workload"
)

// The benchmark owns two closed-loop line-rate drivers, because
// sweep.GenericMeasure offers a fixed 16 frames per 10 us (2.7 % of
// 64-byte line rate on SUME) and so never loads the engine: each tops
// the tap and host queues up, then advances simulated time, so the
// device is never offered less because the host is slow. Both report
// the same value names as GenericMeasure, so every workload's cells
// read alike.

// countingTaps plugs a counting tap into every port of the device: the
// drivers report totals, never payloads.
func countingTaps(dev *netfpga.Device) []*netfpga.PortTap {
	taps := make([]*netfpga.PortTap, dev.Board.Ports)
	for i := range taps {
		taps[i] = dev.Tap(i)
		taps[i].SetCounting(true)
	}
	return taps
}

// tapCounts sums what the taps counted.
func tapCounts(taps []*netfpga.PortTap) (frames, bytes uint64) {
	for _, tap := range taps {
		f, b := tap.Counts()
		frames += f
		bytes += b
	}
	return frames, bytes
}

// meshMeasure drives a unicast full mesh over every port of a learning
// switch at line rate: each station is pre-learned, then port i sends
// frames of the cell's "frame" size to the stations on all other ports
// in turn. Frames are drawn from one workload generator per (source,
// destination) pair, seeded from the cell seed.
func meshMeasure(tr *tracer) sweep.Measure {
	return func(c *fleet.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		dev := c.Dev
		taps := countingTaps(dev)
		n := len(taps)
		macs := make([]pkt.MAC, n)
		for i := range macs {
			macs[i] = pkt.MAC{2, 0x4d, byte(c.Seed >> 16), byte(c.Seed >> 8), byte(c.Seed), byte(i)}
		}
		// A frame addressed to its own source is learned and then
		// dropped (destination on the source segment), so learning
		// delivers nothing to the counting taps.
		for i, tap := range taps {
			learn, err := pkt.Serialize(pkt.SerializeOptions{},
				&pkt.Ethernet{Dst: macs[i], Src: macs[i], EtherType: 0x88B5})
			if err != nil {
				return sweep.Outcome{}, err
			}
			tap.Send(pkt.PadToMin(learn))
		}
		dev.RunFor(20 * netfpga.Microsecond)

		gens := make([][]*traffic.Generator, n) // gens[i][k]: port i to its k-th peer
		for i := range gens {
			for j := range taps {
				if j == i {
					continue
				}
				g, err := traffic.New(traffic.Config{
					Seed:   c.Seed + uint64(i*n+j),
					Sizes:  traffic.FixedSize(cell.Int("frame")),
					SrcMAC: macs[i], DstMAC: macs[j],
				})
				if err != nil {
					return sweep.Outcome{}, err
				}
				gens[i] = append(gens[i], g)
			}
		}

		send := tr.site(c, "serial.tap_send", sampleStride)
		run := tr.site(c, "sim.run", 1)
		var sent uint64
		turn := make([]int, n)
		for end := dev.Now() + cell.Spec.Window(); dev.Now() < end && !c.Canceled(); {
			for i, tap := range taps {
				for tap.MAC().TxQueue().Bytes() < 16<<10 {
					frame := gens[i][turn[i]%len(gens[i])].NextView()
					turn[i]++
					t0 := send.start()
					ok := tap.Send(frame)
					send.stop(t0)
					if !ok {
						break
					}
					sent++
				}
			}
			t0 := run.start()
			dev.RunFor(5 * netfpga.Microsecond)
			run.stop(t0)
		}
		t0 := run.start()
		dev.RunUntilIdle(0)
		run.stop(t0)
		send.close()
		run.close()

		var o sweep.Outcome
		rxFrames, rxBytes := tapCounts(taps)
		o.Set("sent", float64(sent))
		o.Set("rx_frames", float64(rxFrames))
		o.Set("rx_bytes", float64(rxBytes))
		o.Set("drops", float64(sweep.QueueDrops(dev)))
		return o, nil
	}
}

// nicMeasure drives the reference NIC both ways with IMIX: the host
// sends on every queue in turn until the transmit ring is full, every
// tap is topped up toward the host, simulated time advances, and the
// host polls what arrived.
func nicMeasure(tr *tracer) sweep.Measure {
	return func(c *fleet.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		dev := c.Dev
		taps := countingTaps(dev)
		n := len(taps)
		toWire, err := traffic.New(traffic.Config{Seed: c.Seed})
		if err != nil {
			return sweep.Outcome{}, err
		}
		toHost, err := traffic.New(traffic.Config{Seed: c.Seed + 1})
		if err != nil {
			return sweep.Outcome{}, err
		}

		send := tr.site(c, "host.send", sampleStride)
		poll := tr.site(c, "host.poll", 1)
		tapSend := tr.site(c, "serial.tap_send", sampleStride)
		run := tr.site(c, "sim.run", 1)
		var sent, hostFrames, hostBytes uint64
		var q int
		var pending []byte // generated but refused by a full ring; sent first next round
		doPoll := func() {
			t0 := poll.start()
			rx := dev.Driver.Poll()
			poll.stop(t0)
			hostFrames += uint64(len(rx))
			for _, p := range rx {
				hostBytes += uint64(len(p.Data))
			}
		}
		for end := dev.Now() + cell.Spec.Window(); dev.Now() < end && !c.Canceled(); {
			for {
				if pending == nil {
					pending = toWire.NextView()
				}
				t0 := send.start()
				err := dev.Driver.Send(pending, q)
				send.stop(t0)
				if err != nil {
					break
				}
				pending = nil
				q = (q + 1) % n
				sent++
			}
			for _, tap := range taps {
				for tap.MAC().TxQueue().Bytes() < 8<<10 {
					frame := toHost.NextView()
					t0 := tapSend.start()
					ok := tap.Send(frame)
					tapSend.stop(t0)
					if !ok {
						break
					}
					sent++
				}
			}
			t0 := run.start()
			dev.RunFor(2 * netfpga.Microsecond)
			run.stop(t0)
			doPoll()
		}
		// Drain with the host still polling: the driver's receive buffer
		// is bounded, so a drain that never polled would drop.
		for idle := false; !idle; doPoll() {
			t0 := run.start()
			idle = dev.RunUntilIdle(1 << 16)
			run.stop(t0)
		}
		send.close()
		poll.close()
		tapSend.close()
		run.close()

		var o sweep.Outcome
		wireFrames, wireBytes := tapCounts(taps)
		o.Set("sent", float64(sent))
		o.Set("rx_frames", float64(wireFrames+hostFrames))
		o.Set("rx_bytes", float64(wireBytes+hostBytes))
		o.Set("host_rx_frames", float64(hostFrames))
		o.Set("drops", float64(sweep.QueueDrops(dev)))
		return o, nil
	}
}
