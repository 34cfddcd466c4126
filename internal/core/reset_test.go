package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/host"
	"repro/internal/pcie"
	"repro/internal/serial"
	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/pkt"
	"repro/netfpga/projects"
	"repro/netfpga/projects/blueswitch"
	"repro/netfpga/projects/osnt"
	"repro/netfpga/projects/router"
	"repro/netfpga/sweep"
)

// captured is one frame a tap buffered.
type captured struct {
	Port int
	At   netfpga.Time
	Data []byte
}

// deviceState is everything a run leaves observable on a device: the
// snapshot, queue drops and register blocks (exportDevice), the engine's
// clocks and counts, the design's per-module ticks, window statistics
// and per-stream traffic, what the taps and the host received, the
// memories' and disks' counters, and the project's own counters when it
// keeps any outside the design.
type deviceState struct {
	Export      goldenDevice
	Now         netfpga.Time
	Executed    uint64
	Ticks       uint64
	Cycle       uint64
	ModuleTicks map[string]uint64
	Windows     [2]uint64
	Streams     []string
	Captured    []captured
	Host        []host.RxPacket
	Storage     map[string]uint64
	Project     map[string]uint64
}

func observe(t testing.TB, dev *netfpga.Device, proj netfpga.Project) deviceState {
	t.Helper()
	s := deviceState{
		Export:      exportDevice(t, dev),
		Now:         dev.Now(),
		Executed:    dev.Sim.Executed(),
		Ticks:       dev.Clock.Ticks(),
		Cycle:       dev.Clock.Cycle(),
		ModuleTicks: dev.Dsn.ModuleTicks(),
		Storage:     map[string]uint64{},
	}
	s.Windows[0], s.Windows[1] = dev.Dsn.WindowStats()
	for _, st := range dev.Dsn.Streams() {
		s.Streams = append(s.Streams, fmt.Sprintf("%s pushed=%d", st.Name(), st.Pushed()))
	}
	for i := 0; i < dev.Board.Ports; i++ {
		for _, f := range dev.Tap(i).Received() {
			s.Captured = append(s.Captured, captured{Port: i, At: f.At, Data: f.Data})
		}
	}
	if dev.Driver != nil {
		for _, p := range dev.Driver.Poll() { // lent until the next Poll: copied
			p.Data = bytes.Clone(p.Data)
			s.Host = append(s.Host, p)
		}
	}
	for _, m := range dev.SRAMs {
		m.Counters().AddTo(s.Storage, m.Name()+".")
	}
	for _, m := range dev.DRAMs {
		m.Counters().AddTo(s.Storage, m.Name()+".")
	}
	for _, d := range dev.Disks {
		d.Counters().AddTo(s.Storage, d.Name()+".")
	}
	if cs, ok := proj.(hw.CounterSource); ok {
		s.Project = cs.Counters().Map()
	}
	return s
}

// diffStates reports every part of got that differs from want.
func diffStates(t testing.TB, want, got deviceState) {
	t.Helper()
	for _, d := range diffCounters(want.Export.Snapshot, got.Export.Snapshot) {
		t.Errorf("snapshot %s", d)
	}
	w, g := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < w.NumField(); i++ {
		if !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
			t.Errorf("%s differs from a fresh build", w.Type().Field(i).Name)
		}
	}
}

// routerProbe is a frame for the reference router's port-0 interface
// bound off-subnet: with no route it is punted, with a stale one it is
// forwarded. Other projects just carry it.
var routerProbe = func() []byte {
	f, err := pkt.BuildUDP(pkt.UDPSpec{
		SrcMAC: pkt.MAC{2, 0xCC, 0, 0, 0, 1}, DstMAC: router.DefaultInterfaces(1)[0].MAC,
		SrcIP: pkt.IP4{10, 0, 0, 2}, DstIP: pkt.IP4{10, 9, 9, 9},
		SrcPort: 7, DstPort: 9, Payload: make([]byte, 64),
	})
	if err != nil {
		panic(err)
	}
	return f
}()

// station is a MAC only dirty's traffic comes from: a switch that still
// remembered it would unicast exercise's frame to it instead of
// flooding.
var station = pkt.MAC{2, 0xDD, 0, 0, 0, 1}

// stationFrame is a minimum-size frame from src to dst.
func stationFrame(dst, src pkt.MAC) []byte {
	f := make([]byte, 60)
	copy(f, dst[:])
	copy(f[6:], src[:])
	f[12], f[13] = 0x88, 0xB5
	return f
}

// exercise is the run compared after a reset: read back then write a
// pattern in every memory and disk, probe the router path, address the
// station, then the snapshot table's loaded window with capturing taps.
// It returns what the storage reads returned.
func exercise(t testing.TB, dev *netfpga.Device, _ netfpga.Project, seed uint64) []byte {
	t.Helper()
	readBack := touchStorage(dev, seed)
	for i := 0; i < 4; i++ {
		dev.Tap(0).Send(routerProbe)
	}
	dev.Tap(0).Send(stationFrame(station, pkt.MAC{2, 0xDD, 0, 0, 0, 2}))
	load(t, dev, seed, 5, false)
	return readBack
}

// touchStorage reads 64 bytes of every memory and one block of every
// disk, then writes a seed-dependent pattern over them, and returns
// what the reads returned.
func touchStorage(dev *netfpga.Device, seed uint64) (readBack []byte) {
	pattern := make([]byte, 512)
	for i := range pattern {
		pattern[i] = byte(seed) + byte(i)*3
	}
	keep := func(b []byte) { readBack = append(readBack, b...) }
	for _, m := range dev.SRAMs {
		m.Read(0x1000, 64, keep)
		m.Write(0x1000, pattern[:64], nil)
	}
	for _, m := range dev.DRAMs {
		m.Read(0x2000, 64, keep)
		m.Write(0x2000, pattern[:64], nil)
	}
	for _, d := range dev.Disks {
		d.Read(10, 1, func(b []byte, _ error) { keep(b) })
		d.Write(10, pattern, nil)
	}
	dev.RunUntilIdle(1 << 20)
	return readBack
}

// dirty leaves every part a reset must restore out of its built state:
// every writable register written, loadedDevice's traffic with counting
// taps and an intercepting tap, frame windows off, stored bytes, a
// learned station, router probes, and per project its tables (a default
// route whose next hop is unresolved, so the probes take the slow path,
// and an ARP entry; a committed policy) or its generator running.
func dirty(t testing.TB, dev *netfpga.Device, proj netfpga.Project, seed uint64) {
	t.Helper()
	for _, blk := range dev.Regs.Blocks() {
		for _, name := range blk.RF.Names() {
			off, _ := blk.RF.OffsetOf(name)
			_ = blk.RF.Write(off, 0x5a5a0000) // read-only ones refuse; a zero low byte keeps port fields valid
		}
	}
	dev.Tap(dev.Board.Ports - 1).Send(stationFrame(pkt.BroadcastMAC, station))
	for i := 0; i < 4; i++ {
		dev.Tap(0).Send(routerProbe)
	}
	switch p := proj.(type) {
	case *router.Project:
		// The probes miss ARP for the default route's next hop: the
		// slow path parks them and injects ARP requests.
		p.AddRoute(router.Route{Prefix: pkt.Prefix{Bits: 0}, NextHop: pkt.IP4{10, 0, 1, 2}, Port: 0})
		p.AddARP(pkt.IP4{10, 0, 2, 2}, pkt.MAC{2, 0xCC, 0, 0, 2, 2})
	case *blueswitch.Project:
		pol := blueswitch.TagForwardPolicy(0x0800, 5, 1)
		if err := p.InstallInitial(pol); err != nil {
			t.Fatal(err)
		}
		if err := p.StageUpdate(pol); err != nil {
			t.Fatal(err)
		}
		p.Commit()
	case *osnt.Project:
		o := p.Instance()
		if err := o.Configure(0, osnt.TrafficSpec{Template: routerProbe, Mode: osnt.Poisson,
			RateMbps: 2000, Stamp: true, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		o.Start(0)
	}
	touchStorage(dev, seed)
	dev.Dsn.SetFrameBurst(1)
	dev.Tap(0).OnRx = func(*hw.Frame, netfpga.Time) {}
	load(t, dev, seed, 5, true)
	dev.RunFor(3 * netfpga.Microsecond) // and stop with work in flight
}

// TestDeviceResetMatchesFresh is Reset's equivalence net: on every
// registry board × project, full and hybrid fidelity, with and without
// the host, a device built under one seed, sealed, dirtied (dirty) and
// then reset to another seed, or reset and reseeded to it, runs exercise
// exactly as a fresh build under that seed does — snapshot, registers,
// engine counts, module ticks, windows, stream traffic, captured frames and their arrival times, the
// host's receive queue, storage counters and read-back bytes, project
// counters. The port BER is nonzero, so the reseeded error injection is
// compared too.
func TestDeviceResetMatchesFresh(t *testing.T) {
	for _, board := range sweep.BoardNames() {
		for _, e := range projects.All() {
			for _, fid := range []string{netfpga.FidelityFull, netfpga.FidelityHybrid} {
				for _, noHost := range []bool{false, true} {
					opts := netfpga.Options{PortBER: 1e-5, NoHost: noHost, Fidelity: fid}
					name := fmt.Sprintf("%s/%s/%s/nohost=%v", board, e.Name, fid, noHost)
					t.Run(name, func(t *testing.T) {
						for _, reseed := range []bool{false, true} {
							checkReset(t, board, e.Name, opts, 11, 7, reseed, dirty, exercise)
						}
					})
				}
			}
		}
	}
}

// checkReset builds project on board twice under opts: a fresh device
// under seed, and one under dirtySeed that is sealed, dirtied and reset
// to seed — or, with reseed, reset under dirtySeed and then reseeded to
// seed, as a sweep's device cache resets a device when its cell ends
// and reseeds it for the next. run must then leave both in the same
// state.
func checkReset(t testing.TB, board, project string, opts netfpga.Options, dirtySeed, seed uint64, reseed bool,
	dirty func(testing.TB, *netfpga.Device, netfpga.Project, uint64),
	run func(testing.TB, *netfpga.Device, netfpga.Project, uint64) []byte) {
	t.Helper()
	b, ok := sweep.Board(board)
	if !ok {
		t.Fatalf("unknown board %q", board)
	}
	checkResetOn(t, b, project, opts, dirtySeed, seed, reseed, dirty, run)
}

// checkResetOn is checkReset on a board spec.
func checkResetOn(t testing.TB, board netfpga.BoardSpec, project string, opts netfpga.Options, dirtySeed, seed uint64, reseed bool,
	dirty func(testing.TB, *netfpga.Device, netfpga.Project, uint64),
	run func(testing.TB, *netfpga.Device, netfpga.Project, uint64) []byte) {
	t.Helper()
	opts.Seed = seed
	fresh, freshProj, err := builtOn(t, board, project, opts)
	if err != nil {
		return // this board cannot carry the project (no host for the NIC)
	}
	opts.Seed = dirtySeed
	dev, proj, err := builtOn(t, board, project, opts)
	if err != nil {
		t.Fatal(err)
	}
	dev.Seal()
	dirty(t, dev, proj, dirtySeed)
	resetSeed := seed
	if reseed {
		resetSeed = dirtySeed
	}
	if !dev.Reset(resetSeed) {
		t.Fatal("Reset refused a sealed registry device")
	}
	proj.(hw.Resetter).Reset()
	if reseed {
		dev.Reseed(seed)
	}

	wantRead := run(t, fresh, freshProj, seed)
	gotRead := run(t, dev, proj, seed)
	if !reflect.DeepEqual(wantRead, gotRead) {
		t.Error("storage read back differs from a fresh build")
	}
	diffStates(t, observe(t, fresh, freshProj), observe(t, dev, proj))
}

// bigBroadcast is a multi-beat broadcast frame: a switch floods it, so
// its copies share one buffer (hw.FramePool.ShareClone).
var bigBroadcast = func() []byte {
	f := make([]byte, 300)
	copy(f, stationFrame(pkt.BroadcastMAC, station))
	return f
}()

// topUp is a closed-loop driver's cell cut short, as a sweep measure's
// ends: every tap keeps 64 KiB queued toward the device, as
// measureGoodput's do, alternating flooded broadcasts and router probes,
// and the host keeps its transmit ring full, run after run; the last run
// stops mid-frame, with frames queued at the taps, on the wires, in the
// design and in the DMA engine.
func topUp(t testing.TB, dev *netfpga.Device, _ netfpga.Project, _ uint64) {
	t.Helper()
	for round := 0; round < 4; round++ {
		for i := 0; i < dev.Board.Ports; i++ {
			tap := dev.Tap(i)
			tap.SetCounting(true)
			for k := 0; tap.MAC().TxQueue().Bytes() < 1<<16; k++ {
				f := bigBroadcast
				if k%2 == 1 {
					f = routerProbe
				}
				if !tap.Send(f) {
					break
				}
			}
		}
		if dev.Driver != nil {
			for dev.Driver.Send(bigBroadcast, 0) == nil {
			}
		}
		dev.RunFor(1501 * netfpga.Nanosecond)
	}
	if dev.Tap(0).MAC().TxQueue().Len() == 0 {
		t.Fatal("the top-up left nothing in flight")
	}
}

// TestDeviceResetWithFramesInFlight is TestDeviceResetMatchesFresh for
// a cell that ends with its traffic still in flight (topUp), whose
// frames Reset hands back to the pool the next cell draws from: on SUME
// for every project, and on T3's derived board (Gen3 x8, 100G ports, a
// 512-bit bus) for the reference NIC, the reset device runs exercise
// exactly as a fresh build does.
func TestDeviceResetWithFramesInFlight(t *testing.T) {
	sume, _ := sweep.Board("sume")
	fat := sume
	fat.PCIe = pcie.LinkConfig{Gen: pcie.Gen3, Lanes: 8}
	fat.PortConfig = func(i int) serial.Config {
		c := sume.PortConfig(i)
		c.Lanes = 10
		return c
	}
	fat.BusBytes = 64
	cases := []struct {
		name    string
		board   netfpga.BoardSpec
		project string
	}{{"fat-nic/reference_nic", fat, "reference_nic"}}
	for _, e := range projects.All() {
		cases = append(cases, struct {
			name    string
			board   netfpga.BoardSpec
			project string
		}{"sume/" + e.Name, sume, e.Name})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, reseed := range []bool{false, true} {
				checkResetOn(t, c.board, c.project, netfpga.Options{PortBER: 1e-5}, 11, 7, reseed, topUp, exercise)
			}
		})
	}
}
