package lib_test

import (
	"context"
	"fmt"
	"testing"

	"repro/netfpga"
	"repro/netfpga/fleet"
	"repro/netfpga/pkt"
	"repro/netfpga/projects/switchp"
)

// broadcastJob floods broadcast frames through a reference switch: every
// frame replicates to the three non-source ports via the zero-copy
// shared-buffer path in OutputQueues.route, and every delivered copy is
// recycled through the tap back into the frame pool — the refcount's
// full lifecycle, thousands of times per device.
func broadcastJob(name string, frames int) fleet.Job {
	return fleet.Job{
		Name:  name,
		Board: netfpga.SUME(),
		Build: func(dev *netfpga.Device) error {
			return switchp.New(switchp.Config{}).Build(dev)
		},
		Drive: func(c *fleet.Ctx) (any, error) {
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
				return nil, err
			}
			sent := 0
			for sent < frames {
				for i := 0; i < 8 && sent < frames; i++ {
					if taps[sent%4].Send(bcast) {
						sent++
					}
				}
				if !c.RunFor(10 * netfpga.Microsecond) {
					break
				}
			}
			c.Dev.RunUntilIdle(0)
			rx := 0
			for i, tap := range taps {
				for _, f := range tap.Received() {
					if len(f.Data) != len(bcast) {
						return nil, fmt.Errorf("tap %d: corrupt copy length %d", i, len(f.Data))
					}
					rx++
				}
			}
			// Every broadcast frame replicates to the 3 other ports.
			if want := sent * 3; rx != want {
				return nil, fmt.Errorf("rx %d copies, want %d (sent %d)", rx, want, sent)
			}
			return fmt.Sprintf("sent=%d rx=%d", sent, rx), nil
		},
		Stop: fleet.Stop{SimTime: 5 * netfpga.Millisecond},
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
	mkJobs := func() []fleet.Job {
		jobs := make([]fleet.Job, 6)
		for i := range jobs {
			jobs[i] = broadcastJob(fmt.Sprintf("bcast%d", i), frames)
		}
		return jobs
	}
	ref := fleet.Sequential()
	refRes := ref.RunAll(context.Background(), mkJobs())
	for _, r := range refRes {
		if r.Err != nil {
			t.Fatalf("job %q: %v", r.Name, r.Err)
		}
	}
	poolRes := fleet.New(4).RunAll(context.Background(), mkJobs())
	for i, r := range poolRes {
		if r.Err != nil {
			t.Fatalf("pool job %q: %v", r.Name, r.Err)
		}
		if fmt.Sprint(r.Value) != fmt.Sprint(refRes[i].Value) ||
			r.Events != refRes[i].Events {
			t.Errorf("job %q diverges on the pool: %v/%d vs %v/%d",
				r.Name, r.Value, r.Events, refRes[i].Value, refRes[i].Events)
		}
	}
}
