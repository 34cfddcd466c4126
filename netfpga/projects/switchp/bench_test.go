package switchp_test

// Profiling entry points for the reference switch's datapath:
//
//	go test -bench 'Datapath|IMIX' -benchmem -run '^$' ./netfpga/projects/switchp

import (
	"testing"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/pkt"
	"repro/netfpga/projects/switchp"
	"repro/netfpga/workload"
)

// newSwitch builds a SUME reference switch with a tap on every port,
// counting or capturing.
func newSwitch(b *testing.B, counting bool) *netfpga.Device {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	if err := switchp.New(switchp.Config{}).Build(dev); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		dev.Tap(i).SetCounting(counting)
	}
	return dev
}

// unicastFrame is a frame of the given payload from port 0's host to
// port 1's.
func unicastFrame(b *testing.B, payload int) []byte {
	frame, err := pkt.Serialize(pkt.SerializeOptions{},
		&pkt.Ethernet{Dst: pkt.MustMAC("02:00:00:00:00:02"),
			Src: pkt.MustMAC("02:00:00:00:00:01"), EtherType: 0x88B5},
		pkt.Payload(make([]byte, payload)))
	if err != nil {
		b.Fatal(err)
	}
	return frame
}

func BenchmarkDatapathMinFrames10G(b *testing.B) {
	// End-to-end cost of simulating one minimum-size frame through the
	// full reference switch at 10G line rate.
	dev := newSwitch(b, false)
	tap := dev.Tap(0)
	frame := unicastFrame(b, 46)
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

func BenchmarkDatapathBurst10G(b *testing.B) {
	// Full-size frames through the reference switch with counting taps:
	// the workload where frame windows pay most — a 1514-byte frame is
	// 48 bus beats, so the datapath clock spends long windows inside one
	// frame where every module's per-edge decision repeats.
	dev := newSwitch(b, true)
	tap := dev.Tap(0)
	frame := unicastFrame(b, 1500)
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

func BenchmarkSwitchIMIXWorkload(b *testing.B) {
	// Realistic-mix traffic through the reference switch: the per-frame
	// simulation cost under the IMIX size distribution. Counting taps
	// and NextView: the benchmark measures the simulation, not the
	// harness's capture copies and per-frame allocations.
	dev := newSwitch(b, true)
	gen, err := workload.New(workload.Config{Seed: 11})
	if err != nil {
		b.Fatal(err)
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
