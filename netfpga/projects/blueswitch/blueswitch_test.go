package blueswitch

import (
	"testing"

	"repro/netfpga"
	"repro/netfpga/pkt"
)

// frame builds a minimal test frame of the given EtherType.
func frame(ethType uint16, tag byte) []byte {
	data, err := pkt.Serialize(pkt.SerializeOptions{},
		&pkt.Ethernet{
			Dst:       pkt.MustMAC("02:00:00:00:00:02"),
			Src:       pkt.MustMAC("02:00:00:00:00:01"),
			EtherType: ethType,
		},
		pkt.Payload(make([]byte, 46)))
	if err != nil {
		panic(err)
	}
	data[20] = tag
	return data
}

func build(t *testing.T, mode Mode) (*netfpga.Device, *Project) {
	t.Helper()
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	p := New(Config{Mode: mode})
	if err := p.Build(dev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dev.Board.Ports; i++ {
		dev.Tap(i)
	}
	return dev, p
}

func TestBasicMatchAction(t *testing.T) {
	dev, p := build(t, Versioned)
	if err := p.InstallInitial(TagForwardPolicy(0x0800, 1, 1)); err != nil {
		t.Fatal(err)
	}
	dev.Tap(0).Send(frame(0x0800, 0))
	dev.Tap(0).Send(frame(0x86DD, 0)) // no rule: default drop
	dev.RunFor(netfpga.Millisecond)
	if dev.Tap(1).Pending() != 1 {
		t.Fatalf("port 1 got %d frames, want 1", dev.Tap(1).Pending())
	}
	for _, port := range []int{0, 2, 3} {
		if dev.Tap(port).Pending() != 0 {
			t.Fatalf("port %d leaked", port)
		}
	}
	st := p.Counters().Map()
	if st["t0_hits"] != 1 || st["t0_misses"] != 1 {
		t.Fatalf("table 0 stats %v", st)
	}
}

func TestCommitSwitchesPolicy(t *testing.T) {
	dev, p := build(t, Versioned)
	p.InstallInitial(TagForwardPolicy(0x0800, 1, 1))
	dev.Tap(0).Send(frame(0x0800, 0))
	dev.RunFor(netfpga.Millisecond)
	if dev.Tap(1).Received(); dev.Tap(1).Pending() != 0 {
		t.Fatal("drain failed")
	}

	if err := p.StageUpdate(TagForwardPolicy(0x0800, 2, 2)); err != nil {
		t.Fatal(err)
	}
	// Staged but not committed: traffic still follows V1.
	dev.Tap(0).Send(frame(0x0800, 0))
	dev.RunFor(netfpga.Millisecond)
	if len(dev.Tap(1).Received()) != 1 || dev.Tap(2).Pending() != 0 {
		t.Fatal("staged-only update already visible")
	}

	p.Commit()
	dev.Tap(0).Send(frame(0x0800, 0))
	dev.RunFor(netfpga.Millisecond)
	if dev.Tap(2).Pending() != 1 || dev.Tap(1).Pending() != 0 {
		t.Fatal("committed update not applied")
	}
}

// saturate keeps a line-rate stream running on port 0 for dur.
func saturate(dev *netfpga.Device, dur netfpga.Time) int {
	sent := 0
	data := frame(0x0800, 0)
	// 60B+24B at 10G = 67.2ns per frame; inject a batch each microsecond.
	end := dev.Now() + dur
	for dev.Now() < end {
		for i := 0; i < 14; i++ {
			if dev.Tap(0).Send(data) {
				sent++
			}
		}
		dev.RunFor(netfpga.Microsecond)
	}
	return sent
}

func TestVersionedUpdateZeroViolations(t *testing.T) {
	dev, p := build(t, Versioned)
	p.InstallInitial(TagForwardPolicy(0x0800, 1, 1))
	saturate(dev, 100*netfpga.Microsecond)
	p.StageUpdate(TagForwardPolicy(0x0800, 2, 2))
	saturate(dev, 20*netfpga.Microsecond)
	p.Commit()
	sent := saturate(dev, 100*netfpga.Microsecond)
	dev.RunFor(netfpga.Millisecond)

	if p.Violations() != 0 {
		t.Fatalf("versioned update produced %d violations", p.Violations())
	}
	// Every packet went to port 1 (old policy) or port 2 (new policy);
	// none were dropped by mixed application.
	got := len(dev.Tap(1).Received()) + len(dev.Tap(2).Received())
	want := sent + 14*120 // saturate calls before commit
	if got != want {
		t.Fatalf("delivered %d of %d — consistent update must not lose packets", got, want)
	}
}

func TestNaiveUpdateShowsViolations(t *testing.T) {
	dev, p := build(t, Naive)
	p.InstallInitial(TagForwardPolicy(0x0800, 1, 1))
	saturate(dev, 50*netfpga.Microsecond)
	// Rewrite tables 50us apart while line-rate traffic flows: packets
	// between table 0 and table 1 in that window see mixed policy.
	p.ApplyNaive(TagForwardPolicy(0x0800, 2, 2), 50*netfpga.Microsecond)
	saturate(dev, 200*netfpga.Microsecond)
	dev.RunFor(netfpga.Millisecond)

	if p.Violations() == 0 {
		t.Fatal("naive update produced no violations; expected inconsistency")
	}
	if p.Counters().Map()["final_drops"] == 0 {
		t.Fatal("mixed policy should have dropped tag-mismatched packets")
	}
}

func TestNaiveCorrectWhenQuiescent(t *testing.T) {
	// Updating an idle switch naively is harmless — the baseline is only
	// wrong under traffic.
	dev, p := build(t, Naive)
	p.InstallInitial(TagForwardPolicy(0x0800, 1, 1))
	p.ApplyNaive(TagForwardPolicy(0x0800, 2, 2), 10*netfpga.Microsecond)
	dev.RunFor(netfpga.Millisecond) // update completes, no traffic
	dev.Tap(0).Send(frame(0x0800, 0))
	dev.RunFor(netfpga.Millisecond)
	if p.Violations() != 0 {
		t.Fatal("quiescent naive update should be violation-free")
	}
	if dev.Tap(2).Pending() != 1 {
		t.Fatal("new policy not in effect")
	}
}

func TestPolicySizeMismatch(t *testing.T) {
	_, p := build(t, Versioned)
	bad := Policy{{}}
	if err := p.StageUpdate(bad); err == nil {
		t.Fatal("short policy accepted")
	}
	if err := p.InstallInitial(bad); err == nil {
		t.Fatal("short initial policy accepted")
	}
	if err := p.ApplyNaive(bad, 0); err == nil {
		t.Fatal("short naive policy accepted")
	}
}

func TestThreeTablePipeline(t *testing.T) {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
	p := New(Config{
		Mode:      Versioned,
		Selectors: []FieldSel{MatchInPort, MatchEthType, MatchTag},
	})
	if err := p.Build(dev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		dev.Tap(i)
	}
	pol := Policy{
		{Rules: []Rule{{Key: 0, Action: Action{SetTag: 7, HasTag: true}}}}, // from port 0
		{Rules: []Rule{{Key: 0x0800, Action: Action{}}}},                   // pass IPv4
		{Rules: []Rule{{Key: 7, Action: Action{Output: 1 << 3, HasOutput: true}}}},
	}
	if err := p.InstallInitial(pol); err != nil {
		t.Fatal(err)
	}
	dev.Tap(0).Send(frame(0x0800, 0))
	dev.Tap(1).Send(frame(0x0800, 0)) // port 1: no tag at T0 → miss at T2 → drop
	dev.RunFor(netfpga.Millisecond)
	if dev.Tap(3).Pending() != 1 {
		t.Fatalf("three-table match failed: port 3 has %d", dev.Tap(3).Pending())
	}
	if p.Counters().Map()["final_drops"] != 1 {
		t.Fatalf("stats: %v", p.Counters().Map())
	}
}

func TestRegisterView(t *testing.T) {
	dev, p := build(t, Versioned)
	p.InstallInitial(TagForwardPolicy(0x0800, 1, 1))
	bank, err := dev.Driver.RegReadName("blueswitch", "active_bank")
	if err != nil || bank != 0 {
		t.Fatalf("bank=%d err=%v", bank, err)
	}
	p.StageUpdate(TagForwardPolicy(0x0800, 2, 2))
	p.Commit()
	if bank, _ := dev.Driver.RegReadName("blueswitch", "active_bank"); bank != 1 {
		t.Fatalf("bank after commit = %d", bank)
	}
	if v, _ := dev.Driver.ReadCounter64("blueswitch", "violations"); v != 0 {
		t.Fatalf("violations = %d", v)
	}
}
