package lib

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/netfpga/hw"
)

// stampDevice is a host-less SUME device whose port 0 feeds port 1
// through a payload timestamper, a library module no shipped project
// builds.
func stampDevice(seed uint64) *core.Device {
	dev := core.NewDevice(core.SUME(), core.Options{Seed: seed, NoHost: true})
	d := dev.Dsn
	rx0, tx0 := d.NewStream("rx0", 16), d.NewStream("tx0", 16)
	rx1, tx1 := d.NewStream("rx1", 16), d.NewStream("tx1", 16)
	NewMACAttach(d, dev.MACs[0], 0, rx0, tx0, 0)
	NewMACAttach(d, dev.MACs[1], 1, rx1, tx1, 0)
	NewTimestamper(d, "ts", rx0, tx1, StampPayload, 16)
	return dev
}

// stampedRun offers port 0 a burst of frames, runs for dur, and returns
// the device's snapshot and what the port-1 tap captured.
func stampedRun(dev *core.Device, dur hw.Time) (map[string]uint64, []core.RxFrame) {
	out := dev.Tap(1)
	for i := 0; i < 40; i++ {
		dev.Tap(0).Send(frame(200+10*i, byte(i)))
	}
	dev.RunFor(dur)
	return dev.Snapshot(), out.Received()
}

// TestShapingResetMatchesFresh: the timestamper resets to its built
// state, so a device reset with frames held inside it stamps exactly as
// a fresh one: the same counters and the same stamped bytes at the same
// times.
func TestShapingResetMatchesFresh(t *testing.T) {
	wantSnap, wantRx := stampedRun(stampDevice(3), 200*hw.Microsecond)
	if len(wantRx) != 40 {
		t.Fatalf("%d of 40 frames crossed the timestamper", len(wantRx))
	}

	dev := stampDevice(9)
	dev.Seal()
	stampedRun(dev, 2*hw.Microsecond) // and stop with frames held
	if !dev.Reset(3) {
		t.Fatal("Reset refused the device")
	}
	gotSnap, gotRx := stampedRun(dev, 200*hw.Microsecond)
	if !reflect.DeepEqual(gotSnap, wantSnap) {
		t.Errorf("snapshot after Reset differs from a fresh build:\n got %v\nwant %v", gotSnap, wantSnap)
	}
	if !reflect.DeepEqual(gotRx, wantRx) {
		t.Errorf("captured frames after Reset differ from a fresh build (%d vs %d frames)", len(gotRx), len(wantRx))
	}
}
