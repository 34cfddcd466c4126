package lib

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/netfpga/hw"
)

// shapingDevice is a host-less SUME device whose port 0 feeds port 1
// through the library modules no shipped project builds: a rate limiter
// (its register block mounted), a delay and a payload timestamper.
func shapingDevice(seed uint64) (*core.Device, *Delay) {
	dev := core.NewDevice(core.SUME(), core.Options{Seed: seed, NoHost: true})
	d := dev.Dsn
	rx0, tx0 := d.NewStream("rx0", 16), d.NewStream("tx0", 16)
	rx1, tx1 := d.NewStream("rx1", 16), d.NewStream("tx1", 16)
	shaped, delayed := d.NewStream("shaped", 16), d.NewStream("delayed", 16)
	NewMACAttach(d, dev.MACs[0], 0, rx0, tx0, 0)
	NewMACAttach(d, dev.MACs[1], 1, rx1, tx1, 0)
	rl := NewRateLimiter(d, "rl", rx0, shaped, 2000, 3000)
	dev.MountRegs(rl.Registers())
	dl := NewDelay(d, "dl", shaped, delayed, 2*hw.Microsecond)
	NewTimestamper(d, "ts", delayed, tx1, StampPayload, 16)
	return dev, dl
}

// shapedRun offers port 0 a burst of frames, runs for dur, and returns
// the device's snapshot and what the port-1 tap captured.
func shapedRun(dev *core.Device, dur hw.Time) (map[string]uint64, []core.RxFrame) {
	out := dev.Tap(1)
	for i := 0; i < 40; i++ {
		dev.Tap(0).Send(frame(200+10*i, byte(i)))
	}
	dev.RunFor(dur)
	return dev.Snapshot(), out.Received()
}

// TestShapingResetMatchesFresh: the rate limiter, delay and timestamper
// reset to their built state — configuration written through registers
// and setters included — so a reset device shapes, delays and stamps
// exactly as a fresh one.
func TestShapingResetMatchesFresh(t *testing.T) {
	fresh, _ := shapingDevice(3)
	wantSnap, wantRx := shapedRun(fresh, 200*hw.Microsecond)
	if len(wantRx) == 0 {
		t.Fatal("nothing crossed the shaping chain")
	}

	dev, dl := shapingDevice(9)
	dev.Seal()
	if base, ok := dev.Regs.Lookup("rl", "rate_mbps"); !ok || dev.Regs.Write(base, 500) != nil {
		t.Fatal("cannot reconfigure the rate limiter")
	}
	dl.SetDelay(7 * hw.Microsecond)
	shapedRun(dev, 20*hw.Microsecond) // and stop with frames held
	if !dev.Reset(3) {
		t.Fatal("Reset refused the device")
	}
	gotSnap, gotRx := shapedRun(dev, 200*hw.Microsecond)
	if !reflect.DeepEqual(gotSnap, wantSnap) {
		t.Errorf("snapshot after Reset differs from a fresh build:\n got %v\nwant %v", gotSnap, wantSnap)
	}
	if !reflect.DeepEqual(gotRx, wantRx) {
		t.Errorf("captured frames after Reset differ from a fresh build (%d vs %d frames)", len(gotRx), len(wantRx))
	}
}
