package sweep

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/workload"
)

// GenericMeasure is the built-in measure for config-file scenarios: it
// saturates every port of the cell's device with the cell's workload
// (traffic seeded from the cell seed, sprayed across ports by the job
// RNG) for the spec's window, drains the device, and reports the
// traffic totals the matrix compares across boards, projects, workloads
// and BERs.
//
// Reported values: sent/rx frame counts, rx bytes, goodput_gbps over
// the window, queue-overflow drops, and the wire's FCS error count
// (non-zero only on BER cells).
//
// The measure paces the window in 10 µs steps of Ctx.Drive, one
// interval each, and stops early when the batch is canceled. The draw
// step makes the interval's 4 draws per port — a tap from the job RNG,
// then a frame from the generator — and records them; the apply step,
// Drive's inject, injects the recorded frames and offers the background
// aggregates, and Drive runs the device 10 µs. No draw reads simulation
// state: the window fixes the number of intervals, and a tap that
// refuses a frame changes only the sent count. So a cell of at least
// aheadMin intervals (5.12 ms) draws on a goroutine of its own, up to
// aheadChunks chunks ahead of the device — the first of 16 intervals,
// each later one up to twice the last, at most aheadChunk — while a
// shorter cell draws each interval when its step applies it. Either way
// the device sees the same frames in the same order: the schedules
// agree on every value, the digest and the event count. A canceled cell
// reports what it counted by then, undrained.
//
// On a hybrid-fidelity device the measure walks the identical RNG
// sequence (tap draw from the job RNG, then the generator's flow and
// size draws), but frames of background-tagged flows never enter the
// cycle-accurate datapath. They accumulate into per-ingress (frames,
// bytes) aggregates and are offered once per pacing interval to the
// device's analytic Background model, flooded to every egress port
// except the ingress — the delivery pattern of an unlearned destination
// MAC through the reference designs, which is exactly what the
// generator's workload traffic does in full fidelity. Foreground frames
// take the normal tap path and queue behind the modeled background
// backlog in the output-queue stage. The rx/drop totals then fold the
// model's delivered/dropped counters in, and the bg_* values expose the
// model's conservation counters (offered == delivered + dropped holds
// exactly for frames and bytes — asserted by the calibration tests) plus
// the peak modeled occupancy. BER is not applied to background traffic;
// fcs_errors counts only cycle-accurate frames.
func GenericMeasure(c *Ctx, cell Cell) (Outcome, error) {
	return genericMeasure(c, cell, drawAhead)
}

// genericMeasure is GenericMeasure on the given draw schedule.
func genericMeasure(c *Ctx, cell Cell, sched drawSchedule) (Outcome, error) {
	dev := c.Dev
	d, err := cell.devs.drawer(cell.Workload.Config(c.Seed))
	if err != nil {
		return Outcome{}, err
	}
	defer cell.devs.releaseDrawer(d)
	model := dev.Background() // nil in full fidelity
	taps := make([]*netfpga.PortTap, dev.Board.Ports)
	for i := range taps {
		taps[i] = dev.Tap(i)
		// The measure only reports totals, never payloads: counting mode
		// skips the per-frame capture copy, and the device state stays
		// bit-identical.
		taps[i].SetCounting(true)
	}
	window := cell.Spec.Window()
	intervals := 0
	if now := dev.Now(); now < window {
		intervals = int((window - now + pacing - 1) / pacing)
	}
	d.rand, d.ports, d.hybrid = c.Rand, len(taps), model != nil
	d.start(intervals, sched)
	defer d.stop()
	a := applier{d: d, taps: taps, model: model}
	if c.Drive(window, pacing, a.apply) {
		dev.RunUntilIdle(0)
	}

	var rxFrames, rxBytes, fcsErrs uint64
	for _, tap := range taps {
		f, b := tap.Counts()
		rxFrames += f
		rxBytes += b
		// BER is injected on the device's transmit wire; corrupted
		// frames are counted (and discarded) by the tap-side MAC.
		fcsErrs += tap.MAC().FCSErrors()
	}
	drops := QueueDrops(dev)
	var offF, offB, delF, delB, drpF, drpB uint64
	if model != nil {
		offF, offB, delF, delB, drpF, drpB = model.Totals()
	}
	var o Outcome
	o.Set("sent", float64(a.sent))
	o.Set("rx_frames", float64(rxFrames+delF))
	o.Set("rx_bytes", float64(rxBytes+delB))
	o.Set("goodput_gbps", float64(rxBytes+delB)*8/window.Seconds()/1e9)
	o.Set("drops", float64(drops+drpF))
	o.Set("fcs_errors", float64(fcsErrs))
	if model == nil {
		return o, nil
	}
	var peak uint64
	for i := 0; i < model.Ports(); i++ {
		if hw := model.HighWater(i); hw > peak {
			peak = hw
		}
	}
	o.Set("bg_offered_frames", float64(offF))
	o.Set("bg_offered_bytes", float64(offB))
	o.Set("bg_delivered_frames", float64(delF))
	o.Set("bg_delivered_bytes", float64(delB))
	o.Set("bg_dropped_frames", float64(drpF))
	o.Set("bg_dropped_bytes", float64(drpB))
	o.Set("bg_highwater_bytes", float64(peak))
	return o, nil
}

// percentileSorted returns the p-th percentile (0 <= p <= 100) of the
// sorted samples by the nearest-rank method: the smallest sample such
// that at least p% of the set is <= it. Nearest-rank picks an actual
// sample — no interpolation — so percentile values are exactly
// reproducible across platforms and feed digests safely. The caller
// sorts once for every rank it reports. It panics on an empty set.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("sweep: percentile of no samples")
	}
	// The conversion rounds the product before the add, so arm64 does
	// not fuse the two and ranks agree across platforms.
	rank := int(float64(p/100*float64(len(sorted)))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Latency probe stations: A sends, B receives. The MACs are reserved
// for the measure (workload generator traffic never uses the 02:00:...
// station range these sit in).
var (
	latProbeSrc = [6]byte{2, 0, 0, 0, 0xAA, 1}
	latProbeDst = [6]byte{2, 0, 0, 0, 0xAA, 2}
)

// LatencyMeasure is the built-in latency-percentile measure: it paces a
// stream of probe frames from port 0 to a station learned on port 1,
// timestamps every probe at send and at tap-side arrival, and reports
// the per-frame latency distribution as p50/p95/p99 plus mean and max.
//
// Optional spec axes tune it per cell:
//
//	frame:  probe frame size in bytes including FCS (default 64)
//	probes: probe count across the spec window (default 64, at most
//	        one a picosecond)
//	bg:     background frames injected per probe gap (default 0) —
//	        the cell's workload mix, sprayed from the remaining ports,
//	        so the probes queue behind real traffic and the
//	        percentiles spread
//
// The probes are Ctx.Drive's steps, one gap apart; a canceled batch
// stops them and fails the cell with ErrCanceled. Probes follow one
// path at one size, so arrivals stay in send order and the i-th
// filtered arrival is the i-th probe; background frames are filtered
// out by destination MAC. A lost probe is an error, not a silent hole
// in the distribution. Everything is derived from the cell
// seed and simulated time: the distribution is bit-reproducible and
// digest-safe.
func LatencyMeasure(c *Ctx, cell Cell) (Outcome, error) {
	dev := c.Dev
	if dev.Board.Ports < 2 {
		return Outcome{}, fmt.Errorf("latency measure needs >= 2 ports, board has %d", dev.Board.Ports)
	}
	size, err := strconv.Atoi(cell.ParamOr("frame", "64"))
	if err != nil || size < 64 {
		return Outcome{}, fmt.Errorf("bad frame param %q (min 64)", cell.ParamOr("frame", "64"))
	}
	window := cell.Spec.Window()
	probes, err := strconv.Atoi(cell.ParamOr("probes", "64"))
	if err != nil || probes < 1 || netfpga.Time(probes) > window {
		return Outcome{}, fmt.Errorf("bad probes param %q", cell.ParamOr("probes", "64"))
	}
	bg, err := strconv.Atoi(cell.ParamOr("bg", "0"))
	if err != nil || bg < 0 {
		return Outcome{}, fmt.Errorf("bad bg param %q", cell.ParamOr("bg", "0"))
	}

	taps := make([]*netfpga.PortTap, dev.Board.Ports)
	for i := range taps {
		taps[i] = dev.Tap(i)
	}
	a, b := taps[0], taps[1]

	// mk builds a raw Ethernet frame of n on-wire bytes (FCS excluded
	// from Data, as everywhere in the tap API).
	mk := func(dst, src [6]byte, n int) []byte {
		f := make([]byte, n)
		copy(f[0:6], dst[:])
		copy(f[6:12], src[:])
		f[12], f[13] = 0x88, 0xB5
		return f
	}
	wire := size - 4 // FCS
	if wire < 60 {
		wire = 60
	}
	probe := mk(latProbeDst, latProbeSrc, wire)

	// Learn station B so probes unicast to port 1 (a learning switch
	// learns the source; projects that flood regardless still deliver).
	b.Send(mk(latProbeDst, latProbeDst, 60))
	dev.RunFor(20 * netfpga.Microsecond)
	for _, t := range taps {
		t.Received()
		// Only b's captures are read: the others count, which changes
		// nothing but the copies they would keep.
		t.SetCounting(t != b)
	}

	var gen *workload.Generator
	bgTaps := taps[2:]
	if len(bgTaps) == 0 {
		// 2-port boards: background shares the probe's ingress port.
		bgTaps = taps[:1]
	}
	if bg > 0 {
		d, err := cell.devs.drawer(cell.Workload.Config(c.Seed))
		if err != nil {
			return Outcome{}, err
		}
		defer cell.devs.releaseDrawer(d)
		gen = d.gen
	}
	gap := window / netfpga.Time(probes)
	sendAt := make([]netfpga.Time, 0, probes)
	model := dev.Background()
	rejected := -1
	// start+probes*gap is a whole number of gaps: Drive takes exactly
	// probes steps.
	if !c.Drive(dev.Now()+netfpga.Time(probes)*gap, gap, func() {
		i := len(sendAt)
		if gen != nil {
			// Background load from the non-probe ports: unlearned
			// destinations flood, so the probe path's output queue
			// sees real contention. In hybrid fidelity every
			// background frame is by definition background traffic:
			// the same draws route through the analytic model (same
			// flood pattern), and only the probes stay cycle-accurate.
			for j := 0; j < bg; j++ {
				in := bgTaps[(i*bg+j)%len(bgTaps)]
				if model != nil {
					size := uint64(len(gen.NextView()))
					for e := range taps {
						if e != in.Port() {
							model.Offer(e, 1, size)
						}
					}
					continue
				}
				in.Send(gen.NextView())
			}
		}
		sendAt = append(sendAt, dev.Now())
		if !a.Send(probe) && rejected < 0 {
			rejected = i
		}
	}) {
		return Outcome{}, fmt.Errorf("%w after %d of %d probes", ErrCanceled, len(sendAt), probes)
	}
	if rejected >= 0 {
		return Outcome{}, fmt.Errorf("probe %d rejected at tx", rejected)
	}
	dev.RunUntilIdle(0)

	lats := make([]float64, 0, len(sendAt))
	for _, f := range b.Received() {
		if len(f.Data) < 6 || !bytes.Equal(f.Data[0:6], latProbeDst[:]) {
			continue // background arrival
		}
		if len(lats) == len(sendAt) {
			return Outcome{}, fmt.Errorf("more probe arrivals than probes sent")
		}
		lats = append(lats, float64(f.At-sendAt[len(lats)]))
	}
	if len(lats) != len(sendAt) {
		return Outcome{}, fmt.Errorf("lost %d of %d probes", len(sendAt)-len(lats), len(sendAt))
	}

	var sum float64
	for _, l := range lats {
		sum += l
	}
	// lats is private to the measure: sort once, rank three times.
	sort.Float64s(lats)
	var o Outcome
	o.Set("probes", float64(len(lats)))
	o.Set("latency_p50_ps", percentileSorted(lats, 50))
	o.Set("latency_p95_ps", percentileSorted(lats, 95))
	o.Set("latency_p99_ps", percentileSorted(lats, 99))
	o.Set("latency_mean_ps", sum/float64(len(lats)))
	o.Set("latency_max_ps", lats[len(lats)-1])
	if model != nil {
		offF, offB, delF, delB, drpF, drpB := model.Totals()
		o.Set("bg_offered_frames", float64(offF))
		o.Set("bg_offered_bytes", float64(offB))
		o.Set("bg_delivered_frames", float64(delF))
		o.Set("bg_delivered_bytes", float64(delB))
		o.Set("bg_dropped_frames", float64(drpF))
		o.Set("bg_dropped_bytes", float64(drpB))
	}
	return o, nil
}

// QueueDrops sums the design's queue-overflow drops (receive FIFOs and
// output queues): the counters registered as hw.QueueDrop, whatever
// they are named. Lookup-stage policy drops are excluded. This is the
// loss figure the experiments report against offered load.
func QueueDrops(dev *netfpga.Device) uint64 { return dev.Dsn.Sum(hw.QueueDrop) }
