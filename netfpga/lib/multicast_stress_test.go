package lib_test

import (
	"context"
	"fmt"
	"testing"

	"repro/netfpga"
	"repro/netfpga/pkt"
	"repro/netfpga/sweep"
)

// broadcastMeasure floods broadcast frames through a reference switch:
// every frame replicates to the three non-source ports via the
// zero-copy shared-buffer path in OutputQueues.route, and every
// delivered copy is recycled through the tap back into the frame pool —
// the refcount's full lifecycle, thousands of times per device. It
// steps the way the sweep measures step: offer a burst, run 10 us, until
// every frame is sent or the batch is canceled.
func broadcastMeasure(frames int) sweep.Measure {
	return func(c *sweep.Ctx, _ sweep.Cell) (sweep.Outcome, error) {
		var o sweep.Outcome
		taps := make([]*netfpga.PortTap, 4)
		for i := range taps {
			taps[i] = c.Dev.Tap(i)
		}
		bcast, err := pkt.BuildUDP(pkt.UDPSpec{
			SrcMAC: pkt.MustMAC("02:00:00:00:00:01"),
			DstMAC: pkt.MustMAC("ff:ff:ff:ff:ff:ff"),
			SrcIP:  pkt.MustIP4("10.0.0.1"), DstIP: pkt.MustIP4("10.255.255.255"),
			SrcPort: 1, DstPort: 2, Payload: make([]byte, 200),
		})
		if err != nil {
			return o, err
		}
		sent := 0
		for sent < frames && !c.Canceled() {
			for i := 0; i < 8 && sent < frames; i++ {
				if taps[sent%4].Send(bcast) {
					sent++
				}
			}
			c.Dev.RunFor(10 * netfpga.Microsecond)
		}
		c.Dev.RunUntilIdle(0)
		rx := 0
		for i, tap := range taps {
			for _, f := range tap.Received() {
				if len(f.Data) != len(bcast) {
					return o, fmt.Errorf("tap %d: corrupt copy length %d", i, len(f.Data))
				}
				rx++
			}
		}
		// Every broadcast frame replicates to the 3 other ports.
		if want := sent * 3; rx != want {
			return o, fmt.Errorf("rx %d copies, want %d (sent %d)", rx, want, sent)
		}
		o.Set("sent", float64(sent))
		o.Set("rx", float64(rx))
		return o, nil
	}
}

// TestMulticastRefcountStress runs a fleet of broadcast-flooding
// switches on one worker and on a pool of four, so the shared-buffer
// refcount path is exercised by devices running side by side — under
// -race in CI, this is the proof that zero-copy replication stays
// goroutine-confined and deterministic.
func TestMulticastRefcountStress(t *testing.T) {
	frames := 2000
	if testing.Short() {
		frames = 300
	}
	groups := []sweep.Group{{
		Spec:    sweep.Spec{Name: "bcast", Projects: []string{"reference_switch"}, Seeds: []uint64{1, 2, 3, 4, 5, 6}},
		Measure: broadcastMeasure(frames),
	}}
	run := func(workers int) []sweep.CellResult {
		rs, err := sweep.RunGroups(context.Background(), &sweep.Runner{Workers: workers}, groups, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs.Cells {
			if r.Err != "" {
				t.Fatalf("workers=%d: cell %s: %s", workers, r.Cell.Key, r.Err)
			}
		}
		return rs.Cells
	}
	ref, pool := run(1), run(4)
	for i, r := range pool {
		if r.Digest != ref[i].Digest {
			t.Errorf("cell %s diverges on the pool: rx %v, %d events vs rx %v, %d events",
				r.Cell.Key, r.Values["rx"], r.Events, ref[i].Values["rx"], ref[i].Events)
		}
	}
}
