package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/netfpga/hw"
)

// deviceFingerprint canonicalises a device's observable end state:
// simulated time, executed events and every counter.
func deviceFingerprint(d *Device) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d events=%d\n", d.Now(), d.Sim.Executed())
	snap := d.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, snap[k])
	}
	return b.String()
}

// driveLoopback pushes deterministic traffic through a bare SUME device
// (tap-to-MAC loopback traffic only — no project needed: the MACs and
// wires alone generate a rich event stream) using the standard
// RunFor/RunUntilIdle driver shape.
func driveLoopback(d *Device) {
	tap := d.Tap(0)
	frame := make([]byte, 200)
	for i := range frame {
		frame[i] = byte(i)
	}
	for round := 0; round < 30; round++ {
		for i := 0; i < 8; i++ {
			tap.Send(frame)
		}
		d.RunFor(3 * hw.Microsecond)
	}
	d.RunUntilIdle(0)
	tap.Received()
}

// TestWindowSegmentEquivalence: a device driven in segments (every
// budget, with yields firing) ends byte-identical to one driven
// directly — the checkpoint/resume contract the fleet scheduler stands
// on. Both go through Device.run; the hook only adds a term to the event
// budget each sim.Sim.Run call gets.
func TestWindowSegmentEquivalence(t *testing.T) {
	run := func(budget uint64) (string, int) {
		d := NewDevice(SUME(), Options{})
		yields := 0
		if budget > 0 {
			// The cadence is cumulative: every yield falls on an exact
			// multiple of the budget, however the driver slices its runs.
			d.SetSegmentHook(budget, func() {
				yields++
				if got, want := d.Sim.Executed(), uint64(yields)*budget; got != want {
					t.Errorf("budget=%d: yield %d at %d events, want %d", budget, yields, got, want)
				}
			})
		}
		driveLoopback(d)
		return deviceFingerprint(d), yields
	}
	ref, _ := run(0)
	for _, budget := range []uint64{1, 7, 64, 1000, 1 << 30} {
		got, yields := run(budget)
		if got != ref {
			t.Errorf("budget=%d: device state diverges from unsegmented run", budget)
		}
		if budget <= 64 && yields == 0 {
			t.Errorf("budget=%d: segment hook never fired", budget)
		}
	}
}

// TestRunBudgetedPauses: an event budget pauses a run without advancing
// to the deadline, at the same event under any segment hook, and a chain
// of budgeted runs completes exactly like one unbudgeted run.
func TestRunBudgetedPauses(t *testing.T) {
	run := func(seg, budget uint64) (string, int) {
		d := NewDevice(SUME(), Options{})
		if seg > 0 {
			d.SetSegmentHook(seg, func() {})
		}
		tap := d.Tap(0)
		for i := 0; i < 4; i++ {
			tap.Send(make([]byte, 64))
		}
		deadline := d.Now() + 10*hw.Microsecond
		pauses := 0
		for !d.RunBudgeted(deadline, budget) {
			pauses++
			if d.Now() >= deadline {
				t.Fatal("paused run advanced to deadline")
			}
			if want := uint64(pauses) * budget; d.Sim.Executed() != want {
				t.Fatalf("seg=%d: pause %d at %d events, want %d", seg, pauses, d.Sim.Executed(), want)
			}
		}
		if d.Now() != deadline {
			t.Fatalf("completed run at %d, deadline %d", d.Now(), deadline)
		}
		return deviceFingerprint(d), pauses
	}
	ref, pauses := run(0, 0)
	if pauses != 0 {
		t.Fatal("unbudgeted run paused")
	}
	for _, seg := range []uint64{0, 2, 3, 100} {
		got, pauses := run(seg, 3)
		if got != ref {
			t.Errorf("seg=%d: budgeted chain diverges from one run", seg)
		}
		if pauses == 0 {
			t.Fatal("run completed without pausing — budget too large for the scenario?")
		}
	}
}

// TestWindowStateMigration: the checkpoint-by-replay contract. A donor
// device parks mid-run at a segment yield and encodes its ParkState;
// an identically built replica replayed to exactly that executed-event
// count verifies bit-exactly against the checkpoint, and a replica that
// continues to the end matches the donor had it never parked.
func TestWindowStateMigration(t *testing.T) {
	// Donor: drive until a mid-flight yield, capture the checkpoint.
	var cp ParkState
	parked := false
	donor := NewDevice(SUME(), Options{Seed: 42})
	yields := 0
	donor.SetSegmentHook(100, func() {
		yields++
		if yields == 3 && !parked {
			parked = true
			cp = donor.EncodeState()
		}
	})
	driveLoopback(donor)
	if !parked {
		t.Fatal("donor never reached the park yield")
	}
	if cp.Executed == 0 || cp.Digest == "" {
		t.Fatalf("empty checkpoint: %+v", cp)
	}

	// Replica: replay to exactly cp.Executed events (the receiver's
	// fast-forward), then verify the state digest.
	replica := NewDevice(SUME(), Options{Seed: 42})
	verified := false
	replica.SetSegmentHook(cp.Executed, func() {
		if !verified && replica.Sim.Executed() == cp.Executed {
			if err := replica.VerifyState(cp); err != nil {
				t.Fatalf("replayed replica does not verify: %v", err)
			}
			verified = true
		}
	})
	driveLoopback(replica)
	if !verified {
		t.Fatal("replica never crossed the checkpoint's executed count")
	}

	// End states also agree: migration never changes results.
	ref := NewDevice(SUME(), Options{Seed: 42})
	driveLoopback(ref)
	if deviceFingerprint(replica) != deviceFingerprint(ref) {
		t.Error("replica end state diverges from an unmigrated run")
	}

	// A forged checkpoint must not verify.
	bad := cp
	bad.Digest = "deadbeefdeadbeefdeadbeefdeadbeef"
	if err := ref.VerifyState(bad); err == nil {
		t.Error("forged digest verified")
	}
	bad = cp
	bad.Executed++
	if err := ref.VerifyState(bad); err == nil {
		t.Error("forged event count verified")
	}
}

// TestStateDigestCanonical: the digest is a pure function of the
// snapshot's contents, independent of map iteration order, and
// sensitive to any value change.
func TestStateDigestCanonical(t *testing.T) {
	a := map[string]uint64{"x": 1, "y": 2, "z": 3}
	b := map[string]uint64{"z": 3, "y": 2, "x": 1}
	if StateDigest(a) != StateDigest(b) {
		t.Error("digest depends on construction order")
	}
	b["y"] = 4
	if StateDigest(a) == StateDigest(b) {
		t.Error("digest blind to a value change")
	}
	delete(b, "y")
	if StateDigest(a) == StateDigest(b) {
		t.Error("digest blind to a missing key")
	}
}

// TestSegmentHookBoundedDrain: RunUntilIdle's event bound stops at the
// identical point with and without segmentation.
func TestSegmentHookBoundedDrain(t *testing.T) {
	run := func(budget uint64) string {
		d := NewDevice(SUME(), Options{})
		if budget > 0 {
			d.SetSegmentHook(budget, func() {})
		}
		tap := d.Tap(0)
		for i := 0; i < 512; i++ {
			tap.Send(make([]byte, 300))
		}
		if d.RunUntilIdle(500) {
			t.Fatal("drain completed inside the bound — scenario too small")
		}
		return deviceFingerprint(d)
	}
	ref := run(0)
	for _, budget := range []uint64{3, 100, 499, 500, 501} {
		if got := run(budget); got != ref {
			t.Errorf("budget=%d: bounded drain stopping point diverges", budget)
		}
	}
}

// TestRunUntilIdleStopsAtEveryTimers: a device whose agent polls with
// Every goes idle when only that timer is left — at the same event with
// and without segmentation — instead of draining forever; the timer
// stays armed for the next run.
func TestRunUntilIdleStopsAtEveryTimers(t *testing.T) {
	run := func(budget uint64) (string, int) {
		d := NewDevice(SUME(), Options{})
		if budget > 0 {
			d.SetSegmentHook(budget, func() {})
		}
		polls := 0
		d.Every(2*hw.Microsecond, func() { polls++ })
		tap := d.Tap(0)
		for i := 0; i < 64; i++ {
			tap.Send(make([]byte, 300))
		}
		if !d.RunUntilIdle(0) {
			t.Fatal("unbounded drain reported not idle")
		}
		if d.Sim.Pending() != 1 {
			t.Fatalf("idle with %d events pending, want just the Every timer", d.Sim.Pending())
		}
		return deviceFingerprint(d), polls
	}
	ref, polls := run(0)
	if polls == 0 {
		t.Fatal("the agent never polled while traffic drained — scenario too small")
	}
	for _, budget := range []uint64{3, 100, 512} {
		if got, _ := run(budget); got != ref {
			t.Errorf("budget=%d: idle point diverges", budget)
		}
	}
}
