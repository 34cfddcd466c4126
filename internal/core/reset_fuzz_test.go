package core_test

import (
	"testing"

	"repro/internal/mem"
	"repro/netfpga"
	"repro/netfpga/pkt"
	"repro/netfpga/projects"
	"repro/netfpga/projects/blueswitch"
	"repro/netfpga/projects/osnt"
	"repro/netfpga/projects/router"
	"repro/netfpga/sweep"
)

// progFrame is the frame a traffic program sends for arg: the router
// probe, or a frame of 60 + 5·arg bytes between a few stations (every
// fourth one broadcast), so a switch learns, floods and forwards.
func progFrame(arg byte) []byte {
	if arg%16 == 1 {
		return routerProbe
	}
	f := make([]byte, 60+int(arg)*5)
	if arg%4 == 0 {
		copy(f, pkt.BroadcastMAC[:])
	} else {
		f[0], f[5] = 2, arg%8
	}
	f[6], f[11] = 2, (arg/8)%8
	f[12], f[13] = 0x08, 0x00
	for i := 14; i < len(f); i++ {
		f[i] = byte(i) ^ arg
	}
	return f
}

// runProgram interprets prog as up to 64 (op, arg) byte pairs against a
// device and the project built on it — tap and host sends, runs,
// background offers, tap modes, memory and disk read-then-write, project
// table and generator actions, frame-window caps — then drains it, and
// returns what the storage reads returned.
func runProgram(t testing.TB, dev *netfpga.Device, proj netfpga.Project, prog []byte) []byte {
	var readBack []byte
	keep := func(b []byte) { readBack = append(readBack, b...) }
	var mems []mem.Memory
	for _, m := range dev.SRAMs {
		mems = append(mems, m)
	}
	for _, m := range dev.DRAMs {
		mems = append(mems, m)
	}
	for i := 0; i+1 < len(prog) && i < 128; i += 2 {
		op, arg := prog[i]%10, prog[i+1]
		port := int(arg) % dev.Board.Ports
		switch op {
		case 0:
			dev.Tap(port).Send(progFrame(arg))
		case 1:
			dev.RunFor(netfpga.Time(arg+1) * 100 * netfpga.Nanosecond)
		case 2:
			if dev.Driver != nil {
				dev.Driver.Send(progFrame(arg), port)
			}
		case 3:
			if bg := dev.Background(); bg != nil {
				frames := uint64(arg%40) + 1
				bg.Offer(int(arg)%bg.Ports(), frames, frames*uint64(64+int(arg)*5))
			}
		case 4:
			dev.Tap(port).SetCounting(arg&0x80 != 0)
		case 5:
			if len(mems) > 0 {
				m, addr := mems[int(arg)%len(mems)], uint64(arg)*256
				m.Read(addr, 64, keep)
				m.Write(addr, progFrame(arg)[:60], nil)
			}
		case 6:
			if len(dev.Disks) > 0 {
				d := dev.Disks[int(arg)%len(dev.Disks)]
				d.Read(uint64(arg), 1, func(b []byte, _ error) { keep(b) })
				d.Write(uint64(arg), make([]byte, 512), nil)
			}
		case 7:
			projectAction(t, dev, proj, port, arg)
		case 8:
			dev.RunUntilIdle(1 << 12)
		case 9:
			dev.Dsn.SetFrameBurst(int(arg % 3))
		}
	}
	dev.RunUntilIdle(1 << 16)
	return readBack
}

// projectAction drives a project's own state: a router route with its
// next hop's ARP entry, a BlueSwitch install, versioned commit or naive
// update, an OSNT generator started on a port.
func projectAction(t testing.TB, dev *netfpga.Device, proj netfpga.Project, port int, arg byte) {
	switch p := proj.(type) {
	case *router.Project:
		nh := pkt.IP4{10, 0, byte(port), 2}
		p.AddRoute(router.Route{Prefix: pkt.Prefix{Addr: pkt.IP4{10, arg, 0, 0}, Bits: arg % 25}, NextHop: nh, Port: uint8(port)})
		p.AddARP(nh, pkt.MAC{2, 0xCC, 0, 0, byte(port), 2})
	case *blueswitch.Project:
		pol := blueswitch.TagForwardPolicy(0x0800, uint32(arg), port)
		var err error
		switch arg % 3 {
		case 0:
			err = p.InstallInitial(pol)
		case 1:
			if err = p.StageUpdate(pol); err == nil {
				p.Commit()
			}
		default:
			err = p.ApplyNaive(pol, 100*netfpga.Nanosecond)
		}
		if err != nil {
			t.Fatal(err)
		}
	case *osnt.Project:
		o := p.Instance()
		spec := osnt.TrafficSpec{Template: progFrame(arg), Count: int(arg % 32), Mode: osnt.GenMode(arg % 2),
			RateMbps: 100 + 10*float64(arg), Stamp: arg&1 == 0, Seed: uint64(arg)}
		if err := o.Configure(port, spec); err != nil {
			t.Fatal(err)
		}
		o.Start(port)
	}
}

// FuzzDeviceReset draws a registry board and project, a fidelity, a
// port BER, two seeds and a traffic program: a device built under the
// first seed, sealed, run through the program and reset to the second
// (or reset under the first and reseeded to the second) must then run
// the program exactly as a fresh build under the second seed does
// (checkReset compares everything TestDeviceResetMatchesFresh does, plus
// the program's storage reads).
func FuzzDeviceReset(f *testing.F) {
	f.Add(uint8(0), uint8(1), false, uint8(1), uint64(1), uint64(2),
		[]byte{0, 3, 0, 9, 1, 40, 0, 12, 4, 0x81, 0, 5, 1, 200, 8, 0})
	f.Add(uint8(3), uint8(2), false, uint8(2), uint64(9), uint64(9),
		[]byte{7, 4, 0, 1, 0, 17, 1, 50, 5, 3, 6, 2, 2, 30, 1, 90, 9, 1, 0, 33})
	f.Add(uint8(2), uint8(5), true, uint8(0), uint64(5), uint64(77),
		[]byte{7, 0, 7, 1, 0, 2, 3, 9, 1, 60, 7, 2, 0, 6, 1, 250, 3, 39})
	f.Add(uint8(4), uint8(4), true, uint8(1), uint64(3), uint64(4),
		[]byte{7, 2, 1, 120, 0, 8, 4, 0x80, 5, 77, 6, 9, 8, 0, 0, 44})
	f.Fuzz(func(t *testing.T, board, project uint8, hybrid bool, ber uint8, dirtySeed, seed uint64, prog []byte) {
		boards, all := sweep.BoardNames(), projects.All()
		opts := netfpga.Options{PortBER: []float64{0, 1e-6, 1e-4}[ber%3], Fidelity: netfpga.FidelityFull}
		if hybrid {
			opts.Fidelity = netfpga.FidelityHybrid
		}
		run := func(t testing.TB, dev *netfpga.Device, proj netfpga.Project, _ uint64) []byte {
			return runProgram(t, dev, proj, prog)
		}
		dirty := func(t testing.TB, dev *netfpga.Device, proj netfpga.Project, seed uint64) {
			runProgram(t, dev, proj, prog)
		}
		for _, reseed := range []bool{false, true} {
			checkReset(t, boards[int(board)%len(boards)], all[int(project)%len(all)].Name, opts, dirtySeed, seed, reseed, dirty, run)
		}
	})
}
