package sweep

import (
	"slices"
	"unsafe"

	"repro/internal/sim"
	"repro/netfpga"
	"repro/netfpga/workload"
)

// pacing is GenericMeasure's interval: one interval's draws go in, then
// the device runs this long.
const pacing = 10 * netfpga.Microsecond

// The draw-ahead schedule's sizes, measured on a SUME switch cell with
// 255 of 256 flows background on 2 vCPUs, where the draw step is about a
// third of the CPU: inline against ahead, medians of 11 alternated runs
// of 200 000 intervals' worth of cells at each cell length.
const (
	// aheadMin is the fewest intervals a cell draws ahead: 512
	// (5.12 ms). At GOMAXPROCS 2 ahead ran ×0.96 inline at 256
	// intervals, ×0.92 at 384, ×1.03 at 512, ×1.18 at 768, ×1.20 at
	// 1024, ×1.25 at 2048 and ×1.47 at 8192; at GOMAXPROCS 1 the two
	// ran level (×1.00–1.03) at every length. Every paper-sweep cell
	// (≤ 10 intervals) and tiny_fleet cell (1) stays inline.
	aheadMin = 512
	// aheadFirst is the most intervals a cell's first chunk holds: the
	// device starts after 16 intervals' draws, not a whole chunk's.
	aheadFirst = 16
	// aheadChunk is the most intervals any chunk holds: each chunk may
	// hold twice its predecessor's, up to 1024, one handoff per
	// 10.24 ms simulated (≈0.2 ms of work on hybrid_bg255), and a
	// 900 000-interval cell runs 884 chunks. On hybrid_bg255 (6
	// alternated runs) caps of 2048 and 4096 ran ×1.004 and ×1.015 the
	// 1024 cap's 59.0k sim ms/s but held 0.33 and 0.89 MB more peak
	// RSS. Fixed 256-interval chunks, a handoff per ≈64 µs of work,
	// ran 39–40k.
	aheadChunk = 1024
	// aheadChunks chunks rotate between the producer and the device:
	// one being drawn, one being applied, one spare to absorb jitter.
	aheadChunks = 3
	// aheadArena ends a chunk once what it holds reaches 256 KiB: its
	// copies of foreground frames and its 32-byte send records, not the
	// frames the generator keeps. A full-fidelity cell whose generator
	// keeps its frames draws 16 records an interval on a 4-port board,
	// so its chunks stop at 512 intervals, and a jumbo cell whose
	// generator keeps none holds at most about 3 x (256 KiB + one
	// interval) whatever the chunk's size.
	aheadArena = 256 << 10
)

// drawSchedule sets when and how far GenericMeasure draws ahead: cells
// of at least aheadMin intervals, in chunks of first intervals, then
// each up to twice the last, at most chunk intervals or arena bytes of
// frames.
type drawSchedule struct {
	aheadMin, first, chunk, arena int
}

// drawAhead is the shipped schedule. Tests force the inline one with an
// aheadMin no cell reaches.
var drawAhead = drawSchedule{aheadMin: aheadMin, first: aheadFirst, chunk: aheadChunk, arena: aheadArena}

// grow returns the most intervals the chunk after one of size may hold.
// It saturates at s.chunk: doubling without the bound wraps past 63
// chunks and stops the cell drawing.
func (s drawSchedule) grow(size int) int { return min(2*size, s.chunk) }

// drawnSend is one foreground frame in a chunk and its ingress tap: the
// generator's own view of it if the generator keeps its frames, else
// nil and where its copy ends in the chunk's arena (it starts where the
// previous copy's ends). The arena never reaches 4 GiB.
type drawnSend struct {
	view []byte
	end  uint32
	tap  uint8
}

// drawChunk holds the draws of n consecutive intervals. An interval
// makes 4 draws per port, each a foreground send or a background draw,
// so on a hybrid cell its sends are the draws its background ones leave,
// and on a full-fidelity cell all of them.
type drawChunk struct {
	n int
	// bgF and bgB hold, for each interval of a hybrid cell and each
	// ingress, the frames and bytes of its background draws: at most
	// 4 x hw.MaxPorts frames of 9000 bytes, 5 bytes per port.
	bgF   []uint8
	bgB   []uint32
	sends []drawnSend
	arena []byte
}

func (ch *drawChunk) reset() {
	ch.n, ch.bgF, ch.bgB, ch.sends, ch.arena = 0, ch.bgF[:0], ch.bgB[:0], ch.sends[:0], ch.arena[:0]
}

// held is what aheadArena bounds: ch's copies and its send records.
func (ch *drawChunk) held() int {
	return len(ch.arena) + len(ch.sends)*int(unsafe.Sizeof(drawnSend{}))
}

// drawer is the draw step's state: the cell's RNG and generator, which
// nothing else touches while the cell draws, and the chunks it fills. A
// plan's cache keeps drawers between cells, their generators' frames and
// their buffers grown; LatencyMeasure takes one for its generator.
type drawer struct {
	rand   *sim.Rand
	gen    *workload.Generator
	ports  int
	hybrid bool
	chunks [aheadChunks]drawChunk
	// The handoff with the producer while a cell draws ahead (start); a
	// nil full draws inline. fault is a panic of the producer.
	free, full chan *drawChunk
	fault      any
}

// draw appends one interval to ch: 4 draws per port, each a tap from the
// job RNG, then the generator's flow and size. A foreground frame stays
// the generator's view if the generator keeps its frames until the
// cell's end, and is copied into the arena if not; background draws
// become per-ingress aggregates.
func (d *drawer) draw(ch *drawChunk) {
	var bgF []uint8
	var bgB []uint32
	if d.hybrid {
		ch.bgF, ch.bgB = append(ch.bgF, make([]uint8, d.ports)...), append(ch.bgB, make([]uint32, d.ports)...)
		bgF, bgB = ch.bgF[len(ch.bgF)-d.ports:], ch.bgB[len(ch.bgB)-d.ports:]
	}
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
			snd := drawnSend{view: frame, tap: uint8(ti)}
			if !d.gen.Cached() {
				ch.arena = append(ch.arena, frame...)
				snd.view, snd.end = nil, uint32(len(ch.arena))
			}
			ch.sends = append(ch.sends, snd)
			continue
		}
		bgF[ti]++
		bgB[ti] += uint32(size)
	}
	ch.n++
}

// produce fills chunks from d.free and hands them on d.full, in order,
// until it has drawn intervals intervals or d.free closes. The first
// chunk holds at most sched.first intervals, each later one at most
// sched.grow of its predecessor's, and a chunk ends early once what it
// holds reaches sched.arena bytes.
func (d *drawer) produce(intervals int, sched drawSchedule) {
	for left, size := intervals, sched.first; left > 0; size = sched.grow(size) {
		ch, ok := <-d.free
		if !ok {
			return
		}
		ch.reset()
		if d.hybrid {
			n := min(left, size) * d.ports
			ch.bgF, ch.bgB = slices.Grow(ch.bgF, n), slices.Grow(ch.bgB, n)
		}
		for ; left > 0 && ch.n < size && ch.held() < sched.arena; left-- {
			d.draw(ch)
		}
		d.full <- ch
	}
}

// start sets how next hands the apply step the cell's intervals of
// draws. A cell of fewer than sched.aheadMin intervals draws each
// interval inline when next asks for it. A longer one draws on a
// producer goroutine (produce), up to aheadChunks chunks ahead, until
// stop joins it.
func (d *drawer) start(intervals int, sched drawSchedule) {
	if intervals < sched.aheadMin {
		return
	}
	// Each channel can hold every chunk, so no send on either blocks.
	d.free, d.full = make(chan *drawChunk, aheadChunks), make(chan *drawChunk, aheadChunks)
	for i := range d.chunks {
		d.free <- &d.chunks[i]
	}
	go func() {
		defer close(d.full) // runs last: next and stop join on it
		defer func() { d.fault = recover() }()
		d.produce(intervals, sched)
	}()
}

// next hands back spent, the chunk it returned last (nil at first), and
// returns the chunk that holds the cell's next intervals: one drawn
// inline, or the producer's next. It raises a panic of the producer
// again, so the cell records it as its error.
func (d *drawer) next(spent *drawChunk) *drawChunk {
	if d.full == nil {
		ch := &d.chunks[0]
		ch.reset()
		d.draw(ch)
		return ch
	}
	if spent != nil {
		d.free <- spent
	}
	ch, ok := <-d.full
	if !ok {
		panic(d.fault)
	}
	return ch
}

// stop joins the producer, whether it has drawn every interval or not,
// and leaves d drawing inline. Closing free stops the producer once it
// has filled the chunks handed back before the stop.
func (d *drawer) stop() {
	if d.full == nil {
		return
	}
	close(d.free)
	for range d.full { // the chunks drawn past a stop
	}
	d.free, d.full = nil, nil
}

// applier is the apply step's state: the device side of a cell, and its
// place in the chunk ch it applies: the next interval iv, that
// interval's first send s, and where the send's copy starts in ch's
// arena.
type applier struct {
	d            *drawer
	taps         []*netfpga.PortTap
	model        *netfpga.Background // nil in full fidelity
	sent         uint64
	ch           *drawChunk
	iv, s, start int
}

// apply injects the next interval's draws: its sends, then its
// background draws flooded to every egress but their ingress. It takes
// the next chunk once it has applied every interval of ch.
func (a *applier) apply() {
	if a.ch == nil || a.iv == a.ch.n {
		a.ch, a.iv, a.s, a.start = a.d.next(a.ch), 0, 0, 0
	}
	ch, ports := a.ch, len(a.taps)
	var bgF []uint8
	var bgB []uint32
	var totF, totB uint64
	if a.model != nil {
		bgF, bgB = ch.bgF[a.iv*ports:(a.iv+1)*ports], ch.bgB[a.iv*ports:(a.iv+1)*ports]
		for e := range ports {
			totF += uint64(bgF[e])
			totB += uint64(bgB[e])
		}
	}
	a.iv++
	for end := a.s + 4*ports - int(totF); a.s < end; a.s++ {
		snd := &ch.sends[a.s]
		frame := snd.view
		if frame == nil {
			frame, a.start = ch.arena[a.start:snd.end], int(snd.end)
		}
		if a.taps[snd.tap].Send(frame) {
			a.sent++
		}
	}
	// The model has no tx FIFO to reject an arrival; every background
	// draw counts as sent and is resolved into delivered or dropped by
	// admission.
	a.sent += totF
	if totF > 0 {
		for e := range ports {
			if f := totF - uint64(bgF[e]); f > 0 {
				a.model.Offer(e, f, totB-uint64(bgB[e]))
			}
		}
	}
}
