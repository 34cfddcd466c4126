package serial

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/netfpga/hw"
)

func pair(t *testing.T, cfgA, cfgB Config, prop sim.Time) (*sim.Sim, *MAC, *MAC) {
	t.Helper()
	s := sim.New()
	a, b := NewMAC(s, cfgA), NewMAC(s, cfgB)
	if err := Connect(a, b, prop); err != nil {
		t.Fatal(err)
	}
	return s, a, b
}

func TestFrameDelivery(t *testing.T) {
	// A 1-byte frame is timed as padded to the 60-byte minimum, and
	// counted as the byte handed over.
	for _, size := range []int{60, 1} {
		s, a, b := pair(t, Eth10G("a"), Eth10G("b"), 5*sim.Nanosecond)
		var got *hw.Frame
		var at sim.Time
		b.SetReceiver(func(f *hw.Frame, ok bool) {
			if !ok {
				t.Fatal("unexpected FCS error")
			}
			got, at = f, s.Now()
		})
		f := hw.NewFrame(make([]byte, size), 0)
		if !a.Send(f) {
			t.Fatal("send failed")
		}
		// 60B + 24B overhead = 84B = 672 bits at 10G = 67.2ns, +5ns prop.
		done := sim.BitTime(672, 10)
		if s.RunUntil(done - 1); a.Stats()["tx_frames"] != 0 {
			t.Fatalf("%d B: completed before %v", size, done)
		}
		if s.RunUntil(done); a.Stats()["tx_frames"] != 1 {
			t.Fatalf("%d B: not completed at %v", size, done)
		}
		s.Drain(0)
		if got != f {
			t.Fatalf("%d B: frame not delivered", size)
		}
		if want := done + 5*sim.Nanosecond; at != want {
			t.Fatalf("%d B: delivered at %v, want %v", size, at, want)
		}
		if tx, rx := a.Stats()["tx_bytes"], b.Stats()["rx_bytes"]; tx != uint64(size) || rx != uint64(size) {
			t.Fatalf("%d B: tx_bytes %d, rx_bytes %d", size, tx, rx)
		}
	}
}

func TestLineRateExact(t *testing.T) {
	// 10GbE at minimum frame size: one 60B+FCS frame per 67.2ns →
	// 14.88 Mpps, the canonical 10G line-rate figure.
	cfg := Eth10G("a")
	cfg.TxBufBytes = 1 << 20 // hold the whole burst
	s, a, b := pair(t, cfg, Eth10G("b"), 0)
	n := 0
	b.SetReceiver(func(*hw.Frame, bool) { n++ })
	for i := 0; i < 2000; i++ {
		a.Send(hw.NewFrame(make([]byte, 60), 0))
	}
	s.RunFor(100 * sim.Microsecond)
	// 100us / 67.2ns = 1488 frames.
	if n < 1486 || n > 1489 {
		t.Fatalf("received %d frames in 100us, want ~1488", n)
	}
}

func TestRateMismatchRejected(t *testing.T) {
	s := sim.New()
	a, b := NewMAC(s, Eth10G("a")), NewMAC(s, Eth40G("b"))
	if err := Connect(a, b, 0); err == nil {
		t.Fatal("connecting 10G to 40G should fail")
	}
}

// TestConnectRefusesASlowClock: a 60-byte frame takes 6.72 ns on a 100G
// wire, which must be longer than every clock period and the wire delay.
func TestConnectRefusesASlowClock(t *testing.T) {
	minWire := NewMAC(sim.New(), Eth100G("x")).wireTime(MinFrameBytes)
	for _, c := range []struct {
		clock, prop sim.Time
		ok          bool
	}{
		{7 * sim.Nanosecond, 0, false},
		{5 * sim.Nanosecond, 7 * sim.Nanosecond, false},
		{minWire, 0, false},
		{5 * sim.Nanosecond, minWire, false},
		{minWire - 1, minWire - 1, true},
		{5 * sim.Nanosecond, 5 * sim.Nanosecond, true},
	} {
		s := sim.New()
		s.NewClock("datapath", c.clock)
		a, b := NewMAC(s, Eth100G("a")), NewMAC(s, Eth100G("b"))
		if err := Connect(a, b, c.prop); (err == nil) != c.ok {
			t.Errorf("%v clock, %v wire: Connect error %v, want refused %v", c.clock, c.prop, err, !c.ok)
		}
	}
}

func TestBondedLanesScaleRate(t *testing.T) {
	r10 := NewMAC(sim.New(), Eth10G("x")).rate
	r40 := NewMAC(sim.New(), Eth40G("x")).rate
	r100 := NewMAC(sim.New(), Eth100G("x")).rate
	if r10 < 9.99 || r10 > 10.01 {
		t.Fatalf("10G MAC rate = %v", r10)
	}
	if r40 != 4*r10 || r100 != 10*r10 {
		t.Fatalf("bonding wrong: %v %v %v", r10, r40, r100)
	}
}

func TestTransmitterSerializes(t *testing.T) {
	s, a, b := pair(t, Eth10G("a"), Eth10G("b"), 0)
	var times []sim.Time
	b.SetReceiver(func(*hw.Frame, bool) { times = append(times, s.Now()) })
	for i := 0; i < 3; i++ {
		a.Send(hw.NewFrame(make([]byte, 1514), 0))
	}
	s.Drain(0)
	if len(times) != 3 {
		t.Fatalf("got %d frames", len(times))
	}
	gap := sim.BitTime(int64(1514+OverheadBytes)*8, 10)
	if times[1]-times[0] != gap || times[2]-times[1] != gap {
		t.Fatalf("inter-arrival %v/%v, want %v", times[1]-times[0], times[2]-times[1], gap)
	}
}

func TestTxOverflowDrops(t *testing.T) {
	s := sim.New()
	a := NewMAC(s, Config{Name: "a", Lanes: 1, LineGbps: 10.3125, TxBufBytes: 3000})
	b := NewMAC(s, Eth10G("b"))
	Connect(a, b, 0)
	sent := 0
	for i := 0; i < 10; i++ {
		if a.Send(hw.NewFrame(make([]byte, 1514), 0)) {
			sent++
		}
	}
	if sent == 10 {
		t.Fatal("expected drops with a 3000B buffer")
	}
	if a.Stats()["tx_drops"] == 0 {
		t.Fatal("drops not counted")
	}
	s.Drain(0)
	if b.Stats()["rx_frames"] != uint64(sent)+1 && b.Stats()["rx_frames"] != uint64(sent) {
		// The in-flight frame plus the queued ones; tolerate fencepost.
		t.Fatalf("rx %d, sent %d", b.Stats()["rx_frames"], sent)
	}
}

func TestBERInjection(t *testing.T) {
	s := sim.New()
	// BER chosen so ~half of 1514B frames are corrupted:
	// p = 1-(1-ber)^bits ≈ 0.5 at ber = 5.7e-5 for 12144 bits.
	a := NewMAC(s, Config{Name: "a", Lanes: 1, LineGbps: 10.3125, BER: 5.7e-5, Seed: 9})
	b := NewMAC(s, Eth10G("b"))
	Connect(a, b, 0)
	bad := 0
	b.SetReceiver(func(_ *hw.Frame, ok bool) {
		if !ok {
			bad++
		}
	})
	const total = 2000
	go func() {}() // no goroutines needed; keep deterministic
	for i := 0; i < total; i++ {
		a.Send(hw.NewFrame(make([]byte, 1514), 0))
		s.RunFor(2 * sim.Microsecond)
	}
	s.Drain(0)
	if bad < total/4 || bad > 3*total/4 {
		t.Fatalf("corrupted %d of %d frames, want ~half", bad, total)
	}
	if b.Stats()["fcs_errors"] != uint64(bad) {
		t.Fatal("fcs_errors miscounted")
	}
}

func TestZeroBERNoErrors(t *testing.T) {
	s, a, b := pair(t, Eth10G("a"), Eth10G("b"), 0)
	bad := 0
	b.SetReceiver(func(_ *hw.Frame, ok bool) {
		if !ok {
			bad++
		}
	})
	for i := 0; i < 100; i++ {
		a.Send(hw.NewFrame(make([]byte, 100), 0))
	}
	s.Drain(0)
	if bad != 0 {
		t.Fatalf("%d spurious FCS errors", bad)
	}
}

func TestFullDuplex(t *testing.T) {
	s, a, b := pair(t, Eth10G("a"), Eth10G("b"), 0)
	an, bn := 0, 0
	a.SetReceiver(func(*hw.Frame, bool) { an++ })
	b.SetReceiver(func(*hw.Frame, bool) { bn++ })
	var at, bt sim.Time
	a.SetReceiver(func(*hw.Frame, bool) { an++; at = s.Now() })
	b.SetReceiver(func(*hw.Frame, bool) { bn++; bt = s.Now() })
	a.Send(hw.NewFrame(make([]byte, 500), 0))
	b.Send(hw.NewFrame(make([]byte, 500), 0))
	s.Drain(0)
	if an != 1 || bn != 1 {
		t.Fatalf("an=%d bn=%d", an, bn)
	}
	if at != bt {
		t.Fatalf("directions interfered: %v vs %v", at, bt)
	}
}

func TestSendBeforeConnect(t *testing.T) {
	s := sim.New()
	a := NewMAC(s, Eth10G("a"))
	a.Send(hw.NewFrame(make([]byte, 60), 0)) // queued, not transmitted
	s.Drain(0)
	if a.Stats()["tx_frames"] != 0 {
		t.Fatal("transmitted without a link")
	}
	b := NewMAC(s, Eth10G("b"))
	got := 0
	b.SetReceiver(func(*hw.Frame, bool) { got++ })
	Connect(a, b, 0) // link-up flushes the queue
	s.Drain(0)
	if got != 1 {
		t.Fatal("queued frame not sent at link-up")
	}
}

func TestEth1GRate(t *testing.T) {
	r := NewMAC(sim.New(), Eth1G("g")).rate
	if r < 0.999 || r > 1.001 {
		t.Fatalf("1G rate = %v", r)
	}
}

// observer records what a MAC hands it.
type observer struct {
	at []sim.Time
}

func (o *observer) Observe(f *hw.Frame, at sim.Time, ok bool) { o.at = append(o.at, at) }

// TestObserverCostsNoEvent: toward an observer, the transmitter arms no
// event: frames arrive at the times a receiver sees them, handed over
// when something reads either end at or after their arrival, and a
// simulation with nothing else scheduled executes nothing.
func TestObserverCostsNoEvent(t *testing.T) {
	s, a, b := pair(t, Eth10G("a"), Eth10G("b"), 5*sim.Nanosecond)
	o := &observer{}
	b.SetObserver(o)
	for i := 0; i < 3; i++ {
		a.Send(hw.NewFrame(make([]byte, 1514), 0))
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events pending toward an observer", s.Pending())
	}
	gap := sim.BitTime(int64(1514+OverheadBytes)*8, 10)
	first := gap + 5*sim.Nanosecond
	if s.RunUntil(first - 1); b.Counters().Map()["rx_frames"] != 0 || len(o.at) != 0 {
		t.Fatalf("a frame arrived before %v", first)
	}
	s.RunUntil(first)
	if got := b.Counters().Map()["rx_frames"]; got != 1 || len(o.at) != 1 || o.at[0] != first {
		t.Fatalf("at %v: %d frames counted, arrivals %v; want 1 at %v", first, got, o.at, first)
	}
	s.RunUntil(10 * sim.Microsecond)
	a.Settle()
	if want := []sim.Time{first, first + gap, first + 2*gap}; fmt.Sprint(o.at) != fmt.Sprint(want) {
		t.Fatalf("arrivals %v, want %v", o.at, want)
	}
	if s.Executed() != 0 {
		t.Fatalf("%d events executed", s.Executed())
	}
	if tx := a.Counters().Map()["tx_frames"]; tx != 3 {
		t.Fatalf("tx_frames %d, want 3", tx)
	}
}

// TestReceiverCostsOneEventPerFrame: toward a receiver installed with
// SetReceiver, the transmitter arms no completion event, and the
// receiver runs at each frame's arrival instant on the receive timer:
// one event per frame, including frames pushed while others are on the
// wire and a frame pushed toward an idle wire after the rest arrived.
func TestReceiverCostsOneEventPerFrame(t *testing.T) {
	s, a, b := pair(t, Eth10G("a"), Eth10G("b"), 5*sim.Nanosecond)
	var at []sim.Time
	b.SetReceiver(func(f *hw.Frame, ok bool) { at = append(at, s.Now()) })
	for i := 0; i < 3; i++ {
		a.Send(hw.NewFrame(make([]byte, 1514), 0))
	}
	if s.Pending() != 1 {
		t.Fatalf("%d events pending toward a receiver, want 1", s.Pending())
	}
	gap := sim.BitTime(int64(1514+OverheadBytes)*8, 10)
	first := gap + 5*sim.Nanosecond
	s.RunUntil(first + gap/2)
	a.Send(hw.NewFrame(make([]byte, 1514), 0))
	s.Drain(0)
	idle := s.Now()
	a.Send(hw.NewFrame(make([]byte, 60), 0))
	s.Drain(0)
	want := []sim.Time{first, first + gap, first + 2*gap, first + 3*gap, idle + sim.BitTime(84*8, 10) + 5*sim.Nanosecond}
	if fmt.Sprint(at) != fmt.Sprint(want) {
		t.Fatalf("arrivals %v, want %v", at, want)
	}
	if s.Executed() != uint64(len(want)) {
		t.Fatalf("%d events executed for %d frames", s.Executed(), len(want))
	}
}
