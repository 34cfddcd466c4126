package experiments

import (
	"testing"

	"repro/internal/sim"
	"repro/netfpga"
	"repro/netfpga/projects/osnt"
)

// t6aCell runs a T6a-shaped cell — 2 000 CBR frames of 512 bytes at
// 1 Gb/s through the zero-delay loop — for d on a fresh SUME device,
// its clock batch set to batch (0 keeps the engine's).
func t6aCell(t *testing.T, batch int, d netfpga.Time) *netfpga.Device {
	t.Helper()
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	if batch != 0 {
		dev.Clock.SetBatch(batch)
	}
	tester, err := osntLoop(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tester.Configure(0, osnt.TrafficSpec{
		Template: t6Template(), Count: 2000, Mode: osnt.CBR, RateMbps: 1000, Stamp: true,
	}); err != nil {
		t.Fatal(err)
	}
	tester.Start(0)
	dev.RunFor(d)
	if batch == 0 && tester.Stats(1).Pkts != 2000 {
		t.Fatalf("monitor saw %d frames, want 2000", tester.Stats(1).Pkts)
	}
	return dev
}

// TestT6aWindowsRunUntilDecision pins what frame windows save on the
// tester's own traffic: between departures the generator is only
// waiting, so the design absorbs the gap in windows that run until the
// next departure or arrival — longer than the clock's batch — while the
// engine counts every edge exactly as the per-edge reference does. With
// a batch of 1 no window is offered at all. The event count fell by
// 4 000 (from 1 722 393), two per frame, when frames toward the device
// stopped costing a completion and an arrival event each, and by 2 000
// more, one per frame, when frames toward the tap whose OnRx relays them
// stopped costing a completion event.
func TestT6aWindowsRunUntilDecision(t *testing.T) {
	dev := t6aCell(t, 0, 20*netfpga.Millisecond)
	windows, absorbed := dev.Dsn.WindowStats()
	edges := dev.Clock.Ticks()
	t.Logf("%d windows absorbed %d of %d edges (%.1f%%), %d events",
		windows, absorbed, edges, 100*float64(absorbed)/float64(edges), dev.Sim.Executed())
	if got := dev.Sim.Executed(); got != 1716393 {
		t.Errorf("sim.events = %d, want 1716393", got)
	}
	if absorbed < 95*edges/100 {
		t.Errorf("windows absorbed %d of %d edges, want >= 95%%", absorbed, edges)
	}
	if windows == 0 || absorbed <= sim.DefaultBatch*windows {
		t.Errorf("%d windows over %d edges: none ran past the %d-edge batch", windows, absorbed, sim.DefaultBatch)
	}
	if w, _ := t6aCell(t, 1, netfpga.Millisecond).Dsn.WindowStats(); w != 0 {
		t.Errorf("SetBatch(1) opened %d windows", w)
	}
}
