package blueswitch

import (
	"testing"

	"repro/netfpga"
	"repro/netfpga/pkt"
)

// TestTableStagesSparse proves the blueswitch pipeline is fully
// sparse-wired: with traffic that dies at the first table (default
// drop, no rules installed), the downstream table stage and the output
// queues must not tick while the front of the pipeline churns —
// Design.Consume wakes exactly the consumer a push feeds, so idle
// stages are skipped wholesale. This closes the ROADMAP's last
// "non-sparse project stream" item with an executable check instead of
// an assumption.
func TestTableStagesSparse(t *testing.T) {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	p := New(Config{})
	if err := p.Build(dev); err != nil {
		t.Fatal(err)
	}
	// Table 0 drops everything by explicit policy, so no frame ever
	// reaches flow_table_1 or the output queues. (Without a policy,
	// misses traverse the whole pipeline and die at the last table —
	// that would keep flow_table_1 legitimately busy.)
	if err := p.InstallInitial(Policy{
		{Default: Action{Drop: true}},
		{Default: Action{Drop: true}},
	}); err != nil {
		t.Fatal(err)
	}
	frame, err := pkt.BuildUDP(pkt.UDPSpec{
		SrcMAC: pkt.MustMAC("02:00:00:00:00:01"), DstMAC: pkt.MustMAC("02:00:00:00:00:02"),
		SrcIP: pkt.MustIP4("10.0.0.1"), DstIP: pkt.MustIP4("10.0.0.2"),
		SrcPort: 1, DstPort: 2, Payload: make([]byte, 120),
	})
	if err != nil {
		t.Fatal(err)
	}
	tap := dev.Tap(0)
	dev.RunFor(10 * netfpga.Microsecond) // let construction-time ticks settle
	base := dev.Dsn.ModuleTicks()
	for i := 0; i < 200; i++ {
		tap.Send(frame)
		if i%50 == 49 {
			dev.RunFor(50 * netfpga.Microsecond)
		}
	}
	dev.RunUntilIdle(0)
	ticks := dev.Dsn.ModuleTicks()
	delta := func(name string) uint64 {
		d, ok := ticks[name]
		if !ok {
			t.Fatalf("no module named %q (have %v)", name, ticks)
		}
		return d - base[name]
	}

	// The fed stages churned...
	for _, busy := range []string{"nf0.attach", "input_arbiter", "flow_table_0"} {
		if delta(busy) < 500 {
			t.Errorf("stage %s ticked only %d times under 200 frames", busy, delta(busy))
		}
	}
	// ...while everything past the dropping table stayed asleep.
	for _, idle := range []string{"flow_table_1", "output_queues"} {
		if delta(idle) != 0 {
			t.Errorf("idle stage %s ticked %d times — not sparse-wired", idle, delta(idle))
		}
	}
	// Ports 1-3 saw no traffic in either direction.
	for _, port := range []string{"nf1.attach", "nf2.attach", "nf3.attach"} {
		if delta(port) != 0 {
			t.Errorf("unused port adapter %s ticked %d times", port, delta(port))
		}
	}
}

// TestSparsePreservesForwarding: the same pipeline with a real policy
// still forwards (sparse wiring must never lose a wakeup), and once
// forwarding, the downstream stages tick.
func TestSparsePreservesForwarding(t *testing.T) {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	p := New(Config{})
	if err := p.Build(dev); err != nil {
		t.Fatal(err)
	}
	if err := p.InstallInitial(TagForwardPolicy(0x0800, 5, 2)); err != nil {
		t.Fatal(err)
	}
	frame, err := pkt.BuildUDP(pkt.UDPSpec{
		SrcMAC: pkt.MustMAC("02:00:00:00:00:01"), DstMAC: pkt.MustMAC("02:00:00:00:00:02"),
		SrcIP: pkt.MustIP4("10.0.0.1"), DstIP: pkt.MustIP4("10.0.0.2"),
		SrcPort: 1, DstPort: 2, Payload: make([]byte, 120),
	})
	if err != nil {
		t.Fatal(err)
	}
	tap0, tap2 := dev.Tap(0), dev.Tap(2)
	for i := 0; i < 50; i++ {
		tap0.Send(frame)
	}
	dev.RunUntilIdle(0)
	if got := len(tap2.Received()); got != 50 {
		t.Fatalf("forwarded %d/50 frames", got)
	}
	ticks := dev.Dsn.ModuleTicks()
	if ticks["flow_table_1"] == 0 || ticks["output_queues"] == 0 {
		t.Fatal("downstream stages never ticked despite forwarding")
	}

	// And once the burst drains, the whole design gates off: no module
	// ticks while simulated time advances through an idle stretch.
	idleBase := dev.Dsn.ModuleTicks()
	dev.RunFor(netfpga.Millisecond)
	for name, n := range dev.Dsn.ModuleTicks() {
		if n != idleBase[name] {
			t.Errorf("module %s ticked %d times during idle time", name, n-idleBase[name])
		}
	}
}
