package sweep

import (
	"slices"

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
	// aheadArena ends a chunk once its foreground frames reach 256 KiB,
	// so a full-fidelity jumbo cell whose generator keeps no frames
	// holds at most about 3 x (256 KiB + one interval) of copies,
	// whatever the chunk's size.
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
	n     int
	bytes int // of the foreground frames
	// bgF and bgB hold, for each interval of a hybrid cell and each
	// ingress, the frames and bytes of its background draws: at most
	// 4 x hw.MaxPorts frames of 9000 bytes, 5 bytes per port.
	bgF   []uint8
	bgB   []uint32
	sends []drawnSend
	arena []byte
}

func (ch *drawChunk) reset() {
	ch.n, ch.bytes, ch.bgF, ch.bgB, ch.sends, ch.arena = 0, 0, ch.bgF[:0], ch.bgB[:0], ch.sends[:0], ch.arena[:0]
}

// drawer is the draw step's state: the cell's RNG and generator, which
// nothing else touches while the cell draws, and the chunks it fills. A
// plan's cache keeps drawers between cells, their buffers grown.
type drawer struct {
	rand   *sim.Rand
	gen    *workload.Generator
	ports  int
	hybrid bool
	chunks [aheadChunks]drawChunk
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
			ch.bytes += len(frame)
			continue
		}
		bgF[ti]++
		bgB[ti] += uint32(size)
	}
	ch.n++
}

// produce fills chunks from free and hands them on full, in order, until
// it has drawn intervals intervals or stop closes. The first chunk holds
// at most sched.first intervals, each later one at most sched.grow of
// its predecessor's, and a chunk ends early once its foreground frames
// reach sched.arena bytes.
func (d *drawer) produce(intervals int, sched drawSchedule, free <-chan *drawChunk, full chan<- *drawChunk, stop <-chan struct{}) {
	for left, size := intervals, sched.first; left > 0; size = sched.grow(size) {
		var ch *drawChunk
		select {
		case ch = <-free:
		case <-stop:
			return
		}
		ch.reset()
		if d.hybrid {
			n := min(left, size) * d.ports
			ch.bgF, ch.bgB = slices.Grow(ch.bgF, n), slices.Grow(ch.bgB, n)
		}
		for ; left > 0 && ch.n < size && ch.bytes < sched.arena; left-- {
			d.draw(ch)
		}
		full <- ch
	}
}

// applier is the apply step's state: the device side of a cell.
type applier struct {
	c     *Ctx
	taps  []*netfpga.PortTap
	model *netfpga.Background // nil in full fidelity
	sent  uint64
}

// apply runs ch's intervals in order — each one's sends, its background
// draws flooded to every egress but their ingress, then one pacing
// interval of device time — and reports false if the batch was canceled
// before one of them.
func (a *applier) apply(ch *drawChunk) bool {
	ports := len(a.taps)
	s, start := 0, 0
	for iv := range ch.n {
		if a.c.Canceled() {
			return false
		}
		var bgF []uint8
		var bgB []uint32
		var totF, totB uint64
		if a.model != nil {
			bgF, bgB = ch.bgF[iv*ports:(iv+1)*ports], ch.bgB[iv*ports:(iv+1)*ports]
			for e := range ports {
				totF += uint64(bgF[e])
				totB += uint64(bgB[e])
			}
		}
		for end := s + 4*ports - int(totF); s < end; s++ {
			snd := &ch.sends[s]
			frame := snd.view
			if frame == nil {
				frame, start = ch.arena[start:snd.end], int(snd.end)
			}
			if a.taps[snd.tap].Send(frame) {
				a.sent++
			}
		}
		// The model has no tx FIFO to reject an arrival; every
		// background draw counts as sent and is resolved into delivered
		// or dropped by admission.
		a.sent += totF
		if totF > 0 {
			for e := range ports {
				if f := totF - uint64(bgF[e]); f > 0 {
					a.model.Offer(e, f, totB-uint64(bgB[e]))
				}
			}
		}
		a.c.Dev.RunFor(pacing)
	}
	return true
}

// ahead draws the cell's intervals on a producer goroutine (produce) and
// hands each chunk to apply, in order, on the caller's goroutine. It
// returns once the producer has exited: after the last interval, or
// once apply reports false, or on a panic on either side. A panic in
// the producer is raised again here, so the cell records it as its
// error.
func (d *drawer) ahead(intervals int, sched drawSchedule, apply func(*drawChunk) bool) {
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
		d.produce(intervals, sched, free, full, stop)
	}()
	defer func() {
		close(stop)
		for range full { // the chunks drawn past a stop
		}
	}()
	for ch := range full {
		if !apply(ch) {
			return
		}
		free <- ch
	}
	if fault != nil {
		panic(fault)
	}
}
