package sweep

import (
	"repro/internal/sim"
	"repro/netfpga"
	"repro/netfpga/workload"
)

// pacing is GenericMeasure's interval: one interval's draws go in, then
// the device runs this long.
const pacing = 10 * netfpga.Microsecond

// The draw-ahead schedule's sizes, measured on a SUME switch cell with
// 255 of 256 flows background at GOMAXPROCS 2 on 2 vCPUs, where the draw
// step is about a third of the CPU: inline against ahead, medians of 11
// alternated runs of 20 000 intervals' worth of cells at each cell
// length. At GOMAXPROCS 1 the two ran level (1.00–1.01x).
const (
	// aheadMin is the fewest intervals a cell draws ahead: 1024
	// (10.24 ms). The producer's start, the wait for its first chunk
	// and the handoffs cost what the overlap saves up to 512 intervals
	// (ahead ran 0.95–1.01x inline there); at 1024 ahead ran 1.14x
	// inline, at 2048 1.29x, at 8192 1.32x. Every paper-sweep cell
	// (≤ 10 intervals) and tiny_fleet cell (1) stays inline.
	aheadMin = 1024
	// aheadChunk is the most intervals one chunk holds: 256, one
	// handoff per 2.56 ms simulated. Chunks of 64 ran 1.17x inline at
	// 8192 intervals, 1024 ran 1.43x there but lost at 1024 intervals.
	aheadChunk = 256
	// aheadChunks chunks rotate between the producer and the device:
	// one being drawn, one being applied, one spare to absorb jitter.
	aheadChunks = 3
	// aheadArena ends a chunk once its foreground frames fill 256 KiB,
	// so a full-fidelity jumbo cell holds at most about 3 x (256 KiB +
	// one interval) of frames, not 256 intervals of them.
	aheadArena = 256 << 10
)

// drawSchedule sets when and how far GenericMeasure draws ahead.
type drawSchedule struct {
	aheadMin, chunk, arena int
}

// drawAhead is the shipped schedule. Tests force the inline one with an
// aheadMin no cell reaches.
var drawAhead = drawSchedule{aheadMin: aheadMin, chunk: aheadChunk, arena: aheadArena}

// drawnSend is one foreground frame in a chunk: its ingress tap, and
// where its bytes end in the chunk's arena (they start where the
// previous frame's end).
type drawnSend struct{ tap, end int }

// drawnOffer is one flood offer to the background model: an egress port
// and the aggregate of every other ingress's background draws.
type drawnOffer struct {
	port          int
	frames, bytes uint64
}

// drawnInterval closes one interval in its chunk: where its sends and
// offers end, and how many background draws it made, which count as
// sent.
type drawnInterval struct {
	sends, offers int
	bg            uint64
}

// drawChunk holds the draws of consecutive intervals.
type drawChunk struct {
	ivs    []drawnInterval
	sends  []drawnSend
	offers []drawnOffer
	arena  []byte
}

func (ch *drawChunk) reset() {
	ch.ivs, ch.sends, ch.offers, ch.arena = ch.ivs[:0], ch.sends[:0], ch.offers[:0], ch.arena[:0]
}

// drawer is the draw step's state: the cell's RNG and generator, which
// nothing else touches while the cell draws, and the chunks it fills. A
// plan's cache keeps drawers between cells, their buffers grown.
type drawer struct {
	rand     *sim.Rand
	gen      *workload.Generator
	ports    int
	hybrid   bool
	bgF, bgB []uint64 // per-ingress background aggregates of one interval
	chunks   [aheadChunks]drawChunk
}

// draw appends one interval to ch: 4 draws per port, each a tap from the
// job RNG, then the generator's flow and size. A foreground frame is
// copied into the arena, as the generator reuses its buffer; background
// draws become per-ingress aggregates, flooded to every egress but their
// ingress.
func (d *drawer) draw(ch *drawChunk) {
	var totF, totB uint64
	for i := 0; i < 4*d.ports; i++ {
		ti := d.rand.Intn(d.ports)
		var frame []byte
		size, background := 0, false
		if !d.hybrid {
			frame = d.gen.NextView()
		} else {
			frame, size, background = d.gen.NextHybrid()
		}
		if !background {
			ch.arena = append(ch.arena, frame...)
			ch.sends = append(ch.sends, drawnSend{tap: ti, end: len(ch.arena)})
			continue
		}
		d.bgF[ti]++
		d.bgB[ti] += uint64(size)
		totF++
		totB += uint64(size)
	}
	if totF > 0 {
		for e := range d.ports {
			if f := totF - d.bgF[e]; f > 0 {
				ch.offers = append(ch.offers, drawnOffer{port: e, frames: f, bytes: totB - d.bgB[e]})
			}
			d.bgF[e], d.bgB[e] = 0, 0
		}
	}
	ch.ivs = append(ch.ivs, drawnInterval{sends: len(ch.sends), offers: len(ch.offers), bg: totF})
}

// applier is the apply step's state: the device side of a cell.
type applier struct {
	c     *Ctx
	taps  []*netfpga.PortTap
	model *netfpga.Background // nil in full fidelity
	sent  uint64
}

// apply runs ch's intervals in order — each one's sends, its offers,
// then one pacing interval of device time — and reports false if the
// batch was canceled before one of them.
func (a *applier) apply(ch *drawChunk) bool {
	s, o, start := 0, 0, 0
	for _, iv := range ch.ivs {
		if a.c.Canceled() {
			return false
		}
		for ; s < iv.sends; s++ {
			snd := ch.sends[s]
			if a.taps[snd.tap].Send(ch.arena[start:snd.end]) {
				a.sent++
			}
			start = snd.end
		}
		// The model has no tx FIFO to reject an arrival; every
		// background draw counts as sent and is resolved into delivered
		// or dropped by admission.
		a.sent += iv.bg
		for ; o < iv.offers; o++ {
			off := ch.offers[o]
			a.model.Offer(off.port, off.frames, off.bytes)
		}
		a.c.Dev.RunFor(pacing)
	}
	return true
}

// ahead draws the cell's intervals on a producer goroutine, in chunks of
// up to sched.chunk intervals or sched.arena frame bytes, and applies
// each chunk as it arrives. It returns once the producer has exited:
// after the last interval, or at the first interval the batch is
// canceled before, or on a panic on either side. A panic in the
// producer is raised again here, so the cell records it as its error.
func (a *applier) ahead(d *drawer, intervals int, sched drawSchedule) {
	// Each channel can hold every chunk, so no send on either blocks.
	free := make(chan *drawChunk, aheadChunks)
	full := make(chan *drawChunk, aheadChunks)
	stop := make(chan struct{})
	for i := range d.chunks {
		free <- &d.chunks[i]
	}
	var fault any
	go func() {
		defer close(full) // runs last: the consumer joins on it
		defer func() { fault = recover() }()
		for left := intervals; left > 0; {
			var ch *drawChunk
			select {
			case ch = <-free:
			case <-stop:
				return
			}
			ch.reset()
			for ; left > 0 && len(ch.ivs) < sched.chunk && len(ch.arena) < sched.arena; left-- {
				d.draw(ch)
			}
			full <- ch
		}
	}()
	defer func() {
		close(stop)
		for range full { // the chunks drawn past a stop
		}
	}()
	for ch := range full {
		if !a.apply(ch) {
			return
		}
		free <- ch
	}
	if fault != nil {
		panic(fault)
	}
}
