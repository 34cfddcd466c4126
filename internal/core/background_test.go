package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/netfpga/hw"
)

// refBackground is the background model as it ran while service was an
// event: each port keeps a timer armed for its head batch's completion,
// and that event retires every batch due by then and re-arms. It is
// kept only as the reference the arithmetic model is held to, the way
// the per-edge clock is kept for frame windows.
type refBackground struct {
	s     *sim.Sim
	ports []refPort
}

type refPort struct {
	rate                                   float64
	fifo                                   []bgBatch
	head                                   int
	pendingFrames, pendingBytes, highwater uint64
	tm                                     *sim.Timer
	armed                                  bool
	offeredFrames, offeredBytes            uint64
	deliveredFrames, deliveredBytes        uint64
	droppedFrames, droppedBytes            uint64
}

func newRefBackground(s *sim.Sim, board BoardSpec) *refBackground {
	bg := &refBackground{s: s, ports: make([]refPort, board.Ports)}
	for i := range bg.ports {
		idx := i
		bg.ports[i].rate = board.PortRate(i)
		bg.ports[i].tm = s.NewTimer(func() { bg.service(idx) })
	}
	return bg
}

func (bg *refBackground) Offer(port int, frames, bytes uint64) (admitFrames, admitBytes uint64) {
	if frames == 0 {
		return 0, 0
	}
	p := &bg.ports[port]
	p.offeredFrames += frames
	p.offeredBytes += bytes
	admitFrames, admitBytes = frames, bytes
	if headroom := uint64(bgQueueBytes) - p.pendingBytes; admitBytes > headroom {
		admitFrames = frames * headroom / bytes
		admitBytes = bytes * admitFrames / frames
	}
	p.droppedFrames += frames - admitFrames
	p.droppedBytes += bytes - admitBytes
	if admitFrames == 0 {
		return 0, 0
	}
	start := bg.s.Now()
	if len(p.fifo) > p.head {
		start = max(start, p.fifo[len(p.fifo)-1].doneAt)
	}
	bits := int64(admitBytes+admitFrames*bgWireOverhead) * 8
	p.fifo = append(p.fifo, bgBatch{frames: admitFrames, bytes: admitBytes, doneAt: start + sim.BitTime(bits, p.rate)})
	p.pendingFrames += admitFrames
	p.pendingBytes += admitBytes
	p.highwater = max(p.highwater, p.pendingBytes)
	if !p.armed {
		p.tm.ScheduleAt(p.fifo[p.head].doneAt)
		p.armed = true
	}
	return admitFrames, admitBytes
}

func (bg *refBackground) service(port int) {
	p := &bg.ports[port]
	p.armed = false
	for p.head < len(p.fifo) && p.fifo[p.head].doneAt <= bg.s.Now() {
		b := p.fifo[p.head]
		p.head++
		p.deliveredFrames += b.frames
		p.deliveredBytes += b.bytes
		p.pendingFrames -= b.frames
		p.pendingBytes -= b.bytes
	}
	if p.head < len(p.fifo) {
		p.tm.ScheduleAt(p.fifo[p.head].doneAt)
		p.armed = true
	}
}

func (bg *refBackground) Release(port int) hw.Time {
	p := &bg.ports[port]
	if p.pendingBytes == 0 {
		return 0
	}
	if rel := p.fifo[len(p.fifo)-1].doneAt; rel > bg.s.Now() {
		return rel
	}
	return 0
}

func (bg *refBackground) Totals() (offeredF, offeredB, deliveredF, deliveredB, droppedF, droppedB uint64) {
	for i := range bg.ports {
		p := &bg.ports[i]
		offeredF += p.offeredFrames
		offeredB += p.offeredBytes
		deliveredF += p.deliveredFrames
		deliveredB += p.deliveredBytes
		droppedF += p.droppedFrames
		droppedB += p.droppedBytes
	}
	return
}

// snapshot is the bg. block Device.Snapshot exports for the model.
func (bg *refBackground) snapshot() map[string]uint64 {
	out := map[string]uint64{}
	for i := range bg.ports {
		p := &bg.ports[i]
		if p.offeredFrames == 0 {
			continue
		}
		for _, c := range []struct {
			name string
			v    uint64
		}{
			{"offered_frames", p.offeredFrames}, {"offered_bytes", p.offeredBytes},
			{"delivered_frames", p.deliveredFrames}, {"delivered_bytes", p.deliveredBytes},
			{"dropped_frames", p.droppedFrames}, {"dropped_bytes", p.droppedBytes},
			{"pending_bytes", p.pendingBytes}, {"highwater", p.highwater},
		} {
			out[fmt.Sprintf("bg.port%d_%s", i, c.name)] = c.v
		}
	}
	return out
}

// bgSnapshot is the bg. block of a device's snapshot.
func bgSnapshot(d *Device) map[string]uint64 {
	out := map[string]uint64{}
	for k, v := range d.Snapshot() {
		if len(k) > 3 && k[:3] == "bg." {
			out[k] = v
		}
	}
	return out
}

// TestLazyBackgroundMatchesEventModel: the background model retires its
// batches by arithmetic, when something reads it, and RunUntilIdle runs
// on to the last completion. Random programs of offers (some at exactly
// a batch's completion, some into a full buffer), runs of random spans,
// runs to exactly a completion, mid-run Totals, HighWater, snapshot and
// Release reads, and drains must see every observable the event-per-
// batch model gives on its own device: admitted counts, totals, every
// bg. counter, releases, and the time a drain ends, with an agent's
// Every timer ticking beside it on both. (Mutation-checked: skipping the
// settle in Totals, retiring only batches due strictly before now, or a
// RunUntilIdle that does not run on to the tail each fail it.)
func TestLazyBackgroundMatchesEventModel(t *testing.T) {
	var atDone, intoFull, drainsWithBacklog int
	boards := Boards()
	for seed := uint64(1); seed <= 150; seed++ {
		r := sim.NewRand(seed)
		board := boards[int(seed)%len(boards)]
		lazy := NewDevice(board, Options{Fidelity: FidelityHybrid, NoHost: true})
		refDev := NewDevice(board, Options{NoHost: true})
		ref := newRefBackground(refDev.Sim, board)
		bg := lazy.Background()
		if every := hw.Time(r.Intn(4)) * 700 * hw.Nanosecond; every > 0 {
			lazy.Every(every, func() {})
			refDev.Every(every, func() {})
		}
		ports := min(board.Ports, 3)
		step := func(op int) string {
			switch op {
			case 0, 1, 2: // offer: a mean frame size of 60 … 1514 bytes
				port := r.Intn(ports)
				frames := uint64(1 + r.Intn(30))
				bytes := frames * uint64(60+r.Intn(1455))
				if ref.ports[port].pendingBytes+bytes > bgQueueBytes {
					intoFull++
				}
				lf, lb := bg.Offer(port, frames, bytes)
				rf, rb := ref.Offer(port, frames, bytes)
				if lf != rf || lb != rb {
					return fmt.Sprintf("Offer(%d, %d, %d) admitted %d/%d, reference %d/%d", port, frames, bytes, lf, lb, rf, rb)
				}
			case 3, 4: // a random span, sometimes none
				span := hw.Time(r.Intn(3)) * hw.Time(r.Intn(8000)) * hw.Nanosecond / 4
				lazy.RunFor(span)
				refDev.RunFor(span)
			case 5, 6: // to exactly one pending batch's completion, then maybe offer there
				p := &ref.ports[r.Intn(ports)]
				if p.head == len(p.fifo) {
					return ""
				}
				at := p.fifo[p.head+r.Intn(len(p.fifo)-p.head)].doneAt
				lazy.RunFor(at - lazy.Now())
				refDev.RunFor(at - refDev.Now())
				atDone++
			case 7: // drain
				if ref.Release(0)+ref.Release(1%ports) > 0 {
					drainsWithBacklog++
				}
				if !lazy.RunUntilIdle(0) || !refDev.RunUntilIdle(0) {
					return "an unbounded drain reported not idle"
				}
			case 8: // mid-run reads, Totals first: no other read may settle for it
				lo, lob, ld, ldb, ldr, ldrb := bg.Totals()
				ro, rob, rd, rdb, rdr, rdrb := ref.Totals()
				if [6]uint64{lo, lob, ld, ldb, ldr, ldrb} != [6]uint64{ro, rob, rd, rdb, rdr, rdrb} {
					return fmt.Sprintf("Totals %v, reference %v", [6]uint64{lo, lob, ld, ldb, ldr, ldrb}, [6]uint64{ro, rob, rd, rdb, rdr, rdrb})
				}
			case 9:
				port := r.Intn(ports)
				if got, want := bg.HighWater(port), ref.ports[port].highwater; got != want {
					return fmt.Sprintf("HighWater(%d) = %d, reference %d", port, got, want)
				}
				got, want := bgSnapshot(lazy), ref.snapshot()
				if fmt.Sprint(got) != fmt.Sprint(want) {
					return fmt.Sprintf("bg. snapshot\n  %v\nreference\n  %v", got, want)
				}
			}
			if lazy.Now() != refDev.Now() {
				return fmt.Sprintf("Now() = %v, reference %v", lazy.Now(), refDev.Now())
			}
			for port := 0; port < ports; port++ {
				if got, want := bg.Release(port), ref.Release(port); got != want {
					return fmt.Sprintf("Release(%d) = %v, reference %v", port, got, want)
				}
			}
			return ""
		}
		for i := 0; i < 300; i++ {
			op := r.Intn(10)
			if msg := step(op); msg != "" {
				t.Fatalf("board %s seed %d op %d (%d): %s", board.Name, seed, i, op, msg)
			}
		}
		for _, op := range []int{7, 8, 9} {
			if msg := step(op); msg != "" {
				t.Fatalf("board %s seed %d final %d: %s", board.Name, seed, op, msg)
			}
		}
	}
	// The net must have reached the cases it is for.
	if atDone < 500 || intoFull < 500 || drainsWithBacklog < 100 {
		t.Fatalf("engaged %d reads at a completion, %d offers into a full buffer, %d drains with backlog: too few", atDone, intoFull, drainsWithBacklog)
	}
	t.Logf("%d runs to a completion, %d offers into a full buffer, %d drains with backlog", atDone, intoFull, drainsWithBacklog)
}

// TestRunUntilIdleFiresTimerAtTail: a drain whose backlog outlasts every
// event runs on to the last completion T and ends there, and an agent's
// Every timer due at exactly T fires before it ends — whichever of the
// timer and the offer came first. The event model fired such a timer
// only if it was armed before the completion event; now every event due
// by T fires, as a RunFor(T) would.
func TestRunUntilIdleFiresTimerAtTail(t *testing.T) {
	for _, timerFirst := range []bool{true, false} {
		d := NewDevice(SUME(), Options{Fidelity: FidelityHybrid, NoHost: true})
		d.RunUntilIdle(0) // the ports' link-up
		const frames, bytes = 10, 10 * 1000
		wire := sim.BitTime((bytes+frames*bgWireOverhead)*8, d.Board.PortRate(0))
		tail, before := d.Now()+wire, d.Sim.Executed()
		fires := 0
		if timerFirst {
			d.Every(wire, func() { fires++ })
		}
		d.Background().Offer(0, frames, bytes)
		if !timerFirst {
			d.Every(wire, func() { fires++ })
		}
		if !d.RunUntilIdle(0) {
			t.Fatal("unbounded drain reported not idle")
		}
		if n := d.Sim.Executed() - before; d.Now() != tail || fires != 1 || n != 1 {
			t.Errorf("timer first %v: drain ended at %v with %d fires in %d events, want %v, 1 and 1", timerFirst, d.Now(), fires, n, tail)
		}
		if _, _, delivered, _, _, _ := d.Background().Totals(); delivered != frames {
			t.Errorf("timer first %v: %d frames delivered, want %d", timerFirst, delivered, frames)
		}
	}
}

// TestRunUntilIdleBudgetCountsOnlyEvents: a budgeted drain counts the
// events it executes, and retiring background backlog is none of them —
// a 19.7 µs backlog under a 1 µs agent timer drains in 19 events, and
// a chain of budgeted drains ends exactly where one unbounded drain
// does, at the backlog's last completion, having reported not idle
// until then.
func TestRunUntilIdleBudgetCountsOnlyEvents(t *testing.T) {
	run := func(limit uint64) (string, int) {
		d := NewDevice(SUME(), Options{Fidelity: FidelityHybrid, NoHost: true})
		d.RunUntilIdle(0) // the ports' link-up
		polls := 0
		d.Every(hw.Microsecond, func() { polls++ })
		// 24 000 bytes of 1 000-byte frames at 10 Gb/s: 19.6608 us.
		d.Background().Offer(0, 24, 24*1000)
		calls := 1
		for ; !d.RunUntilIdle(limit); calls++ {
			if limit == 0 {
				t.Fatal("unbounded drain reported not idle")
			}
		}
		if limit != 0 && calls < 19/int(limit) {
			t.Errorf("limit %d: idle after %d calls, want at least %d", limit, calls, 19/int(limit))
		}
		return deviceFingerprint(d), polls
	}
	linkUp := NewDevice(SUME(), Options{NoHost: true})
	linkUp.RunUntilIdle(0)
	ref, polls := run(0)
	if want := fmt.Sprintf("now=%d events=%d\n", linkUp.Now()+sim.BitTime((24*1000+24*bgWireOverhead)*8, SUME().PortRate(0)), linkUp.Sim.Executed()+19); ref[:len(want)] != want || polls != 19 {
		t.Fatalf("unbounded drain: %q… with %d polls, want %q… and 19", ref[:len(want)], polls, want)
	}
	for _, limit := range []uint64{1, 2, 3, 7, 19, 20} {
		if got, _ := run(limit); got != ref {
			t.Errorf("limit=%d: idle point diverges:\n%s\nwant\n%s", limit, got, ref)
		}
	}
}
