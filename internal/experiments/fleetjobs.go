package experiments

import (
	"fmt"

	"repro/netfpga"
	"repro/netfpga/fleet"
	"repro/netfpga/projects/iotest"
	"repro/netfpga/projects/switchp"
	"repro/netfpga/workload"
)

// switchIMIXJob is one reference-switch device under seeded IMIX load
// for the given simulated window.
func switchIMIXJob(name string, window netfpga.Time) fleet.Job {
	return fleet.Job{
		Name:  name,
		Board: netfpga.SUME(),
		Build: func(dev *netfpga.Device) error {
			return switchp.New(switchp.Config{}).Build(dev)
		},
		Drive: func(c *fleet.Ctx) (any, error) {
			gen, err := workload.New(workload.Config{Seed: c.Seed})
			if err != nil {
				return nil, err
			}
			taps := countingTaps(c.Dev, 4)
			var sent int
			for c.RunFor(10 * netfpga.Microsecond) {
				for i := 0; i < 16; i++ {
					if taps[c.Rand.Intn(4)].Send(gen.Next()) {
						sent++
					}
				}
			}
			c.Dev.RunUntilIdle(0)
			rx, _ := tapCounts(taps...)
			return fmt.Sprintf("sent=%d rx=%d", sent, rx), nil
		},
		Stop: fleet.Stop{SimTime: window},
	}
}

// hundredGigJob is the tail: an iotest loopback device on the 1x100G
// board, saturated for the given window. At 100G with minimum-ish
// frames, simulating one microsecond costs roughly an order of
// magnitude more events than a 10G switch port, which is exactly how
// the real sweep matrix grows its long cells.
func hundredGigJob(name string, window netfpga.Time) fleet.Job {
	return fleet.Job{
		Name:  name,
		Board: netfpga.SUME100G(),
		Build: func(dev *netfpga.Device) error {
			return iotest.New().Build(dev)
		},
		Drive: func(c *fleet.Ctx) (any, error) {
			tap := c.Dev.Tap(0)
			tap.SetCounting(true)
			frame := make([]byte, 256)
			for i := range frame {
				frame[i] = byte(i)
			}
			var sent int
			for c.RunFor(5 * netfpga.Microsecond) {
				for tap.MAC().TxQueue().Bytes() < 1<<16 {
					if !tap.Send(frame) {
						break
					}
					sent++
				}
			}
			c.Dev.RunUntilIdle(0)
			rx, _ := tap.Counts()
			return fmt.Sprintf("sent=%d rx=%d", sent, rx), nil
		},
		Stop: fleet.Stop{SimTime: window},
	}
}

// TailHeavyJobs builds the canonical tail-heavy batch: 15 short devices
// — 7 brief and 8 medium reference switches — followed by ONE long
// 1x100G device, deliberately last in the list, where an unlucky sweep
// ordering puts it. Claimed in list order the pool would chew through
// the short jobs first and start the 100G cell only when a worker frees
// up, for a wall clock of (medium round) + (long cell); the declared
// weights make fleet.Runner claim the long cell at time zero and
// back-fill the short jobs around it, pushing wall clock toward
// max(long cell, total work / workers).
func TailHeavyJobs(scale netfpga.Time) []fleet.Job {
	jobs := make([]fleet.Job, 0, 16)
	for i := 0; i < 7; i++ {
		jobs = append(jobs, switchIMIXJob(fmt.Sprintf("brief%d", i), scale/16))
	}
	for i := 0; i < 8; i++ {
		jobs = append(jobs, switchIMIXJob(fmt.Sprintf("medium%d", i), scale))
	}
	long := hundredGigJob("tail100g", scale/4)
	// The 100G cell costs ~4x a switch cell per simulated microsecond
	// (measured), so its declared quarter-window is a full medium's
	// wall cost; the weight hint says as much, so it is claimed first.
	long.Weight = 2 * int64(scale)
	jobs = append(jobs, long)
	return jobs
}
