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

// TestRunUntilIdleStopsAtEveryTimers: a device whose agent polls with
// Every goes idle when only that timer is left — at the same event
// whether drained in one call or in a chain of bounded ones — instead of
// draining forever; the timer stays armed for the next run.
func TestRunUntilIdleStopsAtEveryTimers(t *testing.T) {
	run := func(limit uint64) (string, int) {
		d := NewDevice(SUME(), Options{})
		polls := 0
		d.Every(2*hw.Microsecond, func() { polls++ })
		tap := d.Tap(0)
		for i := 0; i < 64; i++ {
			tap.Send(make([]byte, 300))
		}
		for !d.RunUntilIdle(limit) {
			if limit == 0 {
				t.Fatal("unbounded drain reported not idle")
			}
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
	for _, limit := range []uint64{3, 100, 512} {
		if got, _ := run(limit); got != ref {
			t.Errorf("limit=%d: idle point diverges", limit)
		}
	}
}
