package experiments

import (
	"repro/netfpga"
	"repro/netfpga/sweep"
)

// measureGoodput saturates the given counting taps (countingTaps; tap i
// repeatedly sends streams[i], nil entries stay silent) through a
// warmup and a timed window, and returns the bytes received across all
// taps strictly within the window. Each 1 µs step of c.Drive tops every
// transmit FIFO up to 64 KiB. The totals are read exactly at the
// window's two ends, so queued-but-undelivered frames are excluded and
// goodput can never exceed the wire. A canceled batch stops the steps
// at once.
func measureGoodput(c *sweep.Ctx, taps []*netfpga.PortTap, streams [][]byte,
	warmup, window netfpga.Time) uint64 {

	topUp := func() {
		for i, tap := range taps {
			if i >= len(streams) || streams[i] == nil {
				continue
			}
			for tap.MAC().TxQueue().Bytes() < 1<<16 {
				if !tap.Send(streams[i]) {
					break
				}
			}
		}
	}
	c.Drive(c.Dev.Now()+warmup, netfpga.Microsecond, topUp)
	_, atStart := tapCounts(taps...)
	c.Drive(c.Dev.Now()+window, netfpga.Microsecond, topUp)
	_, atEnd := tapCounts(taps...)
	return atEnd - atStart
}

// countingTaps attaches taps to ports 0..n-1 in counting mode, for
// measures that total arrivals without looking at them.
func countingTaps(dev *netfpga.Device, n int) []*netfpga.PortTap {
	taps := make([]*netfpga.PortTap, n)
	for i := range taps {
		taps[i] = dev.Tap(i)
		taps[i].SetCounting(true)
	}
	return taps
}

// tapCounts sums the counting-mode totals of taps.
func tapCounts(taps ...*netfpga.PortTap) (frames, bytes uint64) {
	for _, tap := range taps {
		f, b := tap.Counts()
		frames += f
		bytes += b
	}
	return frames, bytes
}
