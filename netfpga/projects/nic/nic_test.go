package nic

import (
	"bytes"
	"testing"

	"repro/netfpga"
)

func newDev() *netfpga.Device {
	return netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
}

func build(t *testing.T) (*netfpga.Device, *Project) {
	t.Helper()
	dev := newDev()
	p := New()
	if err := p.Build(dev); err != nil {
		t.Fatal(err)
	}
	// Plug a cable into every port: an unconnected MAC holds its
	// transmissions until link-up.
	for i := 0; i < dev.Board.Ports; i++ {
		dev.Tap(i)
	}
	return dev, p
}

func TestHostToWire(t *testing.T) {
	dev, _ := build(t)
	tap := dev.Tap(2)
	payload := bytes.Repeat([]byte{0xAB}, 300)
	if err := dev.Driver.Send(payload, 2); err != nil {
		t.Fatal(err)
	}
	dev.RunFor(netfpga.Millisecond)
	rx := tap.Received()
	if len(rx) != 1 {
		t.Fatalf("port 2 transmitted %d frames", len(rx))
	}
	if !bytes.Equal(rx[0].Data, payload) {
		t.Fatal("payload corrupted host->wire")
	}
	// Other ports must stay silent.
	for _, q := range []int{0, 1, 3} {
		if dev.Tap(q).Pending() != 0 {
			t.Fatalf("port %d saw traffic", q)
		}
	}
}

func TestWireToHost(t *testing.T) {
	dev, _ := build(t)
	payload := bytes.Repeat([]byte{0xCD}, 200)
	dev.Tap(1).Send(payload)
	dev.RunFor(netfpga.Millisecond)
	rx := dev.Driver.Poll()
	if len(rx) != 1 {
		t.Fatalf("host received %d frames", len(rx))
	}
	if rx[0].Queue != 1 || rx[0].Port != 1 {
		t.Fatalf("demux wrong: %+v", rx[0])
	}
	if !bytes.Equal(rx[0].Data, payload) {
		t.Fatal("payload corrupted wire->host")
	}
}

func TestEchoThroughHost(t *testing.T) {
	// wire -> host, host resends -> wire: the classic NIC loop.
	dev, _ := build(t)
	dev.Tap(0).Send([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	dev.RunFor(netfpga.Millisecond)
	rx := dev.Driver.Poll()
	if len(rx) != 1 {
		t.Fatalf("host rx %d", len(rx))
	}
	if err := dev.Driver.Send(rx[0].Data, rx[0].Queue); err != nil {
		t.Fatal(err)
	}
	dev.RunFor(netfpga.Millisecond)
	back := dev.Tap(0).Received()
	if len(back) != 1 || !bytes.Equal(back[0].Data, rx[0].Data) {
		t.Fatal("echo failed")
	}
}

func TestManyFramesAllQueues(t *testing.T) {
	dev, _ := build(t)
	const per = 50
	for q := 0; q < 4; q++ {
		for i := 0; i < per; i++ {
			data := []byte{byte(q), byte(i), 0, 0, 0, 0, 0, 0, 0, 0}
			if err := dev.Driver.Send(data, q); err != nil {
				t.Fatal(err)
			}
			dev.RunFor(10 * netfpga.Microsecond)
		}
	}
	dev.RunFor(netfpga.Millisecond)
	for q := 0; q < 4; q++ {
		rx := dev.Tap(q).Received()
		if len(rx) != per {
			t.Fatalf("port %d got %d frames, want %d", q, len(rx), per)
		}
		for i, f := range rx {
			if f.Data[0] != byte(q) || f.Data[1] != byte(i) {
				t.Fatalf("port %d frame %d out of order or misrouted", q, i)
			}
		}
	}
}

func TestUnifiedSimVsBehavioral(t *testing.T) {
	vectors := []netfpga.TestVector{
		{Port: 0, Data: bytes.Repeat([]byte{1}, 64)},
		{Port: 3, Data: bytes.Repeat([]byte{2}, 128)},
		{Port: netfpga.HostPort(1), Data: bytes.Repeat([]byte{3}, 256)},
		{Port: netfpga.HostPort(2), Data: bytes.Repeat([]byte{4}, 512)},
	}
	simOut, twinOut, err := netfpga.RunUnified(func() netfpga.Project { return New() }, newDev, netfpga.TestCase{
		Name:    "nic_basic",
		Vectors: vectors,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(simOut[netfpga.HostPort(0)]) != 1 || len(simOut[netfpga.HostPort(3)]) != 1 {
		t.Fatalf("sim host outputs wrong: %v", simOut)
	}
	if len(twinOut[1]) != 1 || len(twinOut[2]) != 1 {
		t.Fatalf("twin port outputs wrong: %v", twinOut)
	}
}

func TestNICCountersViaRegisters(t *testing.T) {
	dev, _ := build(t)
	dev.Tap(0).Send(make([]byte, 100))
	dev.Driver.Send(make([]byte, 100), 0)
	dev.RunFor(netfpga.Millisecond)
	toHost, err := dev.Driver.ReadCounter64("nic", "rx_to_host")
	if err != nil {
		t.Fatal(err)
	}
	fromHost, err := dev.Driver.ReadCounter64("nic", "tx_from_host")
	if err != nil {
		t.Fatal(err)
	}
	if toHost != 1 || fromHost != 1 {
		t.Fatalf("counters %d/%d, want 1/1", toHost, fromHost)
	}
}

func TestSynthesizesOnAllBoards(t *testing.T) {
	for _, board := range []netfpga.BoardSpec{netfpga.SUME(), netfpga.TenG(), netfpga.OneGCML()} {
		dev := netfpga.NewDevice(board, netfpga.Options{})
		p := New()
		if err := p.Build(dev); err != nil {
			t.Fatalf("%s: %v", board.Name, err)
		}
		rep, err := dev.Dsn.Synthesize(board.FPGA)
		if err != nil {
			t.Fatalf("%s: %v", board.Name, err)
		}
		if rep.Total.LUTs == 0 {
			t.Fatal("empty utilization report")
		}
	}
}

// TestWireToHostRecyclesFrames: in steady state a tap → host loop
// allocates nothing. The driver copies each received frame into the
// round's byte buffer and returns the frame to the design's pool, so the
// frames the taps send are the ones the host path gave back, and Poll
// lends its packets and bytes until the next Poll, whose round after
// collects into them again.
func TestWireToHostRecyclesFrames(t *testing.T) {
	dev, _ := build(t)
	payload := bytes.Repeat([]byte{0xCD}, 600)
	round := func() {
		for i := 0; i < dev.Board.Ports; i++ {
			for k := 0; k < 4; k++ {
				dev.Tap(i).Send(payload)
			}
		}
		dev.RunFor(10 * netfpga.Microsecond)
		if rx := dev.Driver.Poll(); len(rx) != 4*dev.Board.Ports || !bytes.Equal(rx[len(rx)-1].Data, payload) {
			t.Fatalf("host polled %d frames, want %d intact", len(rx), 4*dev.Board.Ports)
		}
	}
	for i := 0; i < 8; i++ { // warm the pool, the rings and the slices
		round()
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("%.2f allocations per round of %d frames, want none", allocs, 4*dev.Board.Ports)
	}
}
