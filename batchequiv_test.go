// Batched-vs-unbatched equivalence at device level: the reference switch
// under seeded IMIX load must produce byte-identical counters, event
// counts and captured frames for every clock batch size and frame-window
// cap. This is the device-scale companion of internal/sim's
// trace-equivalence tests, and the invariant the fleet's determinism
// contract relies on. The batch size and the window cap are not options:
// the tests reach them through the two equivalence-test hooks,
// dev.Clock.SetBatch and dev.Dsn.SetFrameBurst.
package repro

import (
	"bytes"
	"fmt"
	"testing"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/pkt"
	"repro/netfpga/projects/switchp"
	"repro/netfpga/workload"
)

// newHookedDevice builds a SUME device with the two equivalence-test
// hooks set: clockBatch 0 keeps the engine's batch size, frameBurst 0
// its adaptive windows.
func newHookedDevice(clockBatch, frameBurst int) *netfpga.Device {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	if clockBatch != 0 {
		dev.Clock.SetBatch(clockBatch)
	}
	dev.Dsn.SetFrameBurst(frameBurst)
	return dev
}

// runSwitchIMIX drives one reference switch with deterministic IMIX
// traffic at the given clock batch size and returns its full counter
// snapshot plus everything the taps captured.
func runSwitchIMIX(t *testing.T, clockBatch, frameBurst int) (map[string]uint64, []netfpga.RxFrame) {
	t.Helper()
	dev := newHookedDevice(clockBatch, frameBurst)
	if err := switchp.New(switchp.Config{}).Build(dev); err != nil {
		t.Fatal(err)
	}
	taps := make([]*netfpga.PortTap, 4)
	for i := range taps {
		taps[i] = dev.Tap(i)
	}
	gen, err := workload.New(workload.Config{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		taps[i%4].Send(gen.Next())
		if i%64 == 63 {
			dev.RunFor(40 * hw.Microsecond)
		}
	}
	dev.RunUntilIdle(0)
	var rx []netfpga.RxFrame
	for _, tp := range taps {
		rx = append(rx, tp.Received()...)
	}
	return dev.Snapshot(), rx
}

func TestDeviceBatchEquivalence(t *testing.T) {
	refSnap, refRx := runSwitchIMIX(t, 1, 1)
	if refSnap["sim.events"] == 0 || len(refRx) == 0 {
		t.Fatal("reference run did nothing")
	}
	check := func(t *testing.T, clockBatch, frameBurst int) {
		snap, rx := runSwitchIMIX(t, clockBatch, frameBurst)
		if len(snap) != len(refSnap) {
			t.Fatalf("snapshot has %d counters, want %d", len(snap), len(refSnap))
		}
		for k, want := range refSnap {
			if got := snap[k]; got != want {
				t.Errorf("counter %s = %d, want %d", k, got, want)
			}
		}
		if len(rx) != len(refRx) {
			t.Fatalf("captured %d frames, want %d", len(rx), len(refRx))
		}
		for i := range rx {
			if rx[i].At != refRx[i].At || !bytes.Equal(rx[i].Data, refRx[i].Data) {
				t.Fatalf("captured frame %d differs (at %d vs %d)", i, rx[i].At, refRx[i].At)
			}
		}
	}
	for _, batch := range []int{2, 16, 0 /* DefaultBatch */, 512} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			check(t, batch, 1)
		})
	}
	// Frame-burst windows compose with clock batching; every combination
	// must reproduce the unbatched, unbursted run exactly.
	for _, burst := range []int{8, 64, 0 /* adaptive */} {
		t.Run(fmt.Sprintf("burst=%d", burst), func(t *testing.T) {
			check(t, 1, burst)
		})
		t.Run(fmt.Sprintf("batch=0/burst=%d", burst), func(t *testing.T) {
			check(t, 0, burst)
		})
	}
}

// loadedRun is everything a closed-loop line-rate run leaves behind that
// a frame window could disturb.
type loadedRun struct {
	snap            map[string]uint64
	rx              []netfpga.RxFrame
	windows, cycles uint64 // Design.WindowStats
	datapathCycles  uint64 // edges the datapath clock executed
	streamPushed    []uint64
	ticks, beats    uint64 // Σ Design.ModuleTicks, Σ Stream.Pushed
}

// mesh sends the k-th frame of source src to each other port in turn.
func mesh(src, k int) int { return (src + 1 + k%3) % 4 }

// runSwitchLoaded keeps frames of the given size queued at line rate on
// every source port of a pre-learned reference switch for 200 us:
// dst(i, k) is the port the k-th frame of source i goes to, or -1 for a
// port that stays silent. It is the benchmark's mesh driver in
// miniature, with capturing taps.
func runSwitchLoaded(t *testing.T, frameBurst, size int, dst func(src, k int) int) loadedRun {
	t.Helper()
	dev := newHookedDevice(0, frameBurst)
	if err := switchp.New(switchp.Config{}).Build(dev); err != nil {
		t.Fatal(err)
	}
	n := dev.Board.Ports
	taps := make([]*netfpga.PortTap, n)
	macs := make([]pkt.MAC, n)
	for i := range taps {
		taps[i] = dev.Tap(i)
		macs[i] = pkt.MAC{2, 0x4d, 0, 0, 0, byte(i)}
		learn, err := pkt.Serialize(pkt.SerializeOptions{},
			&pkt.Ethernet{Dst: macs[i], Src: macs[i], EtherType: 0x88B5})
		if err != nil {
			t.Fatal(err)
		}
		taps[i].Send(pkt.PadToMin(learn))
	}
	dev.RunFor(20 * hw.Microsecond)
	gens := make([][]*workload.Generator, n)
	for i := range gens {
		for j := 0; j < n; j++ {
			g, err := workload.New(workload.Config{Seed: uint64(7 + i*n + j),
				Sizes: workload.FixedSize(size), SrcMAC: macs[i], DstMAC: macs[j]})
			if err != nil {
				t.Fatal(err)
			}
			gens[i] = append(gens[i], g)
		}
	}
	turn := make([]int, n)
	for end := dev.Now() + 200*hw.Microsecond; dev.Now() < end; {
		for i, tap := range taps {
			for tap.MAC().TxQueue().Bytes() < 16<<10 {
				j := dst(i, turn[i])
				if j < 0 || !tap.Send(gens[i][j].NextView()) {
					break
				}
				turn[i]++
			}
		}
		dev.RunFor(5 * hw.Microsecond)
	}
	dev.RunUntilIdle(0)
	r := loadedRun{snap: dev.Snapshot(), datapathCycles: dev.Dsn.Clock().Ticks()}
	for _, tp := range taps {
		r.rx = append(r.rx, tp.Received()...)
	}
	r.windows, r.cycles = dev.Dsn.WindowStats()
	for _, s := range dev.Dsn.Streams() {
		r.streamPushed = append(r.streamPushed, s.Pushed())
		r.beats += s.Pushed()
	}
	for _, n := range dev.Dsn.ModuleTicks() {
		r.ticks += n
	}
	return r
}

// TestLoadedWindowEquivalence is the half of the equivalence net that
// cannot pass vacuously: under sustained 1514-byte load — where windows
// are supposed to carry most of the datapath — every counter, the event
// count, every captured (time, bytes) and every stream's Pushed and
// HighWater must equal the per-cycle run's, and on the full mesh the
// windows must in fact have absorbed most datapath cycles. The 3→1 case
// adds what the mesh never has: full output queues, tail drops and
// transmit FIFOs that stall for whole frames.
func TestLoadedWindowEquivalence(t *testing.T) {
	cases := []struct {
		name        string
		dst         func(src, k int) int
		minAbsorbed float64
		wantDrops   bool
	}{
		{"mesh", mesh, 0.60, false},
		{"3to1", func(src, k int) int {
			if src == 0 {
				return -1
			}
			return 0
		}, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := runSwitchLoaded(t, 1, 1514, tc.dst)
			if ref.windows != 0 {
				t.Fatalf("SetFrameBurst(1) opened %d windows", ref.windows)
			}
			if len(ref.rx) < 40 {
				t.Fatalf("reference run delivered only %d frames", len(ref.rx))
			}
			if drops := ref.snap["design.output_queues.port0_drops"]; (drops > 0) != tc.wantDrops {
				t.Fatalf("port0_drops = %d, want drops: %v", drops, tc.wantDrops)
			}
			for _, burst := range []int{0, 8} {
				got := runSwitchLoaded(t, burst, 1514, tc.dst)
				if len(got.snap) != len(ref.snap) {
					t.Fatalf("burst=%d: snapshot has %d counters, want %d", burst, len(got.snap), len(ref.snap))
				}
				for k, want := range ref.snap {
					if got.snap[k] != want {
						t.Errorf("burst=%d: counter %s = %d, want %d", burst, k, got.snap[k], want)
					}
				}
				if len(got.rx) != len(ref.rx) {
					t.Fatalf("burst=%d: captured %d frames, want %d", burst, len(got.rx), len(ref.rx))
				}
				for i := range got.rx {
					if got.rx[i].At != ref.rx[i].At || !bytes.Equal(got.rx[i].Data, ref.rx[i].Data) {
						t.Fatalf("burst=%d: captured frame %d differs (at %d vs %d)", burst, i, got.rx[i].At, ref.rx[i].At)
					}
				}
				for i, want := range ref.streamPushed {
					if got.streamPushed[i] != want {
						t.Errorf("burst=%d: stream %d pushed %d beats, want %d", burst, i, got.streamPushed[i], want)
					}
				}
				if got.datapathCycles != ref.datapathCycles {
					t.Errorf("burst=%d: %d datapath cycles, want %d", burst, got.datapathCycles, ref.datapathCycles)
				}
				share := float64(got.cycles) / float64(got.datapathCycles)
				t.Logf("burst=%d: %d windows absorbed %d of %d datapath cycles (%.1f%%)",
					burst, got.windows, got.cycles, got.datapathCycles, 100*share)
				if burst == 0 && share < tc.minAbsorbed {
					t.Errorf("windows absorbed %.1f%% of datapath cycles, want >= %.0f%%", 100*share, 100*tc.minAbsorbed)
				}
				if got.windows == 0 {
					t.Errorf("burst=%d opened no window", burst)
				}
			}
		})
	}
}

// TestMeshPerFrameCounts pins what the full mesh costs the engine, at
// the default frame windows, as exact counts: frames delivered, events
// executed, module invocations and stream beats. They are deterministic,
// so a change that moves one shows the diff here instead of hiding it in
// wall-clock noise; update the row in the same change and say why. The
// 1514 B row's module ticks fell from 45 297 when frame windows stopped
// being cut at the clock's 64-edge batch: a window that ran past a batch
// boundary used to end there and cost one more invocation per runnable
// module. Both rows' events fell by two per delivered frame (93 523 and
// 44 618 before) when a port's MAC stopped arming a completion event
// per frame toward a tap, and the tap an arrival event: the frames to
// the taps are timed by arithmetic (serial.MAC.Settle). They fell by
// two more per frame a tap sent (68 115 and 43 258 before; the 60 B row
// is 12 708 frames sent, 4 of them learning frames, the 1514 B row 684)
// when the taps' MACs did the same toward the ports: each port's attach
// takes the frames at the datapath edge that would have seen their
// arrival events (hw.Arriver), so every executed event is a datapath
// edge, 3.36 per frame on the 60 B mesh. The 1514 B row's module ticks
// fell from 41 326 with them: a tap's completion event and the arrival
// event no longer cut a frame window short, only the edge that takes
// the arrival does.
func TestMeshPerFrameCounts(t *testing.T) {
	for _, tc := range []struct {
		size                         int
		frames, events, ticks, beats uint64
	}{
		{60, 12704, 42699, 172942, 101648},
		{1514, 680, 41890, 41254, 130576},
	} {
		t.Run(fmt.Sprintf("%dB", tc.size), func(t *testing.T) {
			r := runSwitchLoaded(t, 0, tc.size, mesh)
			got := [4]uint64{uint64(len(r.rx)), r.snap["sim.events"], r.ticks, r.beats}
			want := [4]uint64{tc.frames, tc.events, tc.ticks, tc.beats}
			if got != want {
				t.Errorf("frames, events, module ticks, beats = %v, want %v", got, want)
			}
			f := float64(got[0])
			t.Logf("per frame: %.2f events, %.2f module ticks, %.2f beats", float64(got[1])/f, float64(got[2])/f, float64(got[3])/f)
		})
	}
}

// TestCountingMeshRunsOnlyEdges: frames cost no event on either half of
// the wire. On a 60-byte mesh between counting taps every executed event
// is a datapath edge: the port MACs arm no completion timer toward the
// taps and the taps receive no arrival event, and the taps' MACs arm no
// completion timer toward the ports and the ports receive no arrival
// event. The event wire paid two events per frame on each half.
func TestCountingMeshRunsOnlyEdges(t *testing.T) {
	dev := newHookedDevice(0, 0)
	if err := switchp.New(switchp.Config{}).Build(dev); err != nil {
		t.Fatal(err)
	}
	n := dev.Board.Ports
	taps := make([]*netfpga.PortTap, n)
	gens := make([]*workload.Generator, n)
	for i := range taps {
		taps[i] = dev.Tap(i)
		taps[i].SetCounting(true)
		src := pkt.MAC{2, 0x4d, 0, 0, 0, byte(i)}
		learn, err := pkt.Serialize(pkt.SerializeOptions{}, &pkt.Ethernet{Dst: src, Src: src, EtherType: 0x88B5})
		if err != nil {
			t.Fatal(err)
		}
		taps[i].Send(pkt.PadToMin(learn))
		dst := pkt.MAC{2, 0x4d, 0, 0, 0, byte((i + 1) % n)}
		if gens[i], err = workload.New(workload.Config{Seed: uint64(i + 1), Sizes: workload.FixedSize(60), SrcMAC: src, DstMAC: dst}); err != nil {
			t.Fatal(err)
		}
	}
	dev.RunFor(20 * hw.Microsecond)
	for round := 0; round < 20; round++ {
		for i, tap := range taps {
			for tap.MAC().TxQueue().Bytes() < 4<<10 {
				tap.Send(gens[i].NextView())
			}
		}
		dev.RunFor(5 * hw.Microsecond)
	}
	dev.RunUntilIdle(0)
	var tapTx, portRx, delivered uint64
	for i, tap := range taps {
		tapTx += tap.MAC().Counters().Map()["tx_frames"]
		portRx += dev.MACs[i].Counters().Map()["rx_frames"]
		f, _ := tap.Counts()
		delivered += f
	}
	if delivered < 1000 {
		t.Fatalf("%d frames delivered: the mesh did not run", delivered)
	}
	if tapTx != portRx || tapTx < delivered {
		t.Fatalf("the taps sent %d frames, the ports received %d, the taps counted %d", tapTx, portRx, delivered)
	}
	if got, want := dev.Sim.Executed(), dev.Clock.Ticks(); got != want {
		t.Errorf("%d events executed, want %d datapath edges and none per frame: %d sent toward the ports, %d delivered to the taps",
			got, want, tapTx, delivered)
	}
}
