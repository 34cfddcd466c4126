package sim

// A device is built once and reused across sweep cells: Seal marks the
// simulator's state right after construction, and Reset brings it back
// there, so the next run is bit-identical to one on a freshly built
// simulator. What Seal records is exactly what construction can leave
// behind in the engine: the timers it armed (with their (time, sequence)
// keys), the sequence counter, and every clock domain's phase, gating,
// tick count and batch. Lanes are emptied rather than recorded, and
// timers armed after Seal are simply disarmed.

// mark is the simulator state Seal recorded.
type mark struct {
	now      Time
	seq      uint64
	executed uint64
	heap     []entry
	clocks   []clockMark
}

type clockMark struct {
	cycle, ticks uint64
	woke         Time
	active       bool
	batch        int
}

// laneReset is the part of a Lane the simulator drives on Reset.
type laneReset interface {
	Len() int
	reset()
}

// Seal records the current state as the one Reset restores. It runs
// between events, never inside a callback. A simulator sealed while a
// lane still holds queued completions cannot be reset.
func (s *Sim) Seal() {
	m := &s.mark
	s.sealed = !s.firing
	for _, l := range s.lanes {
		if l.Len() > 0 {
			s.sealed = false
		}
	}
	m.now, m.seq, m.executed = s.now, s.seq, s.executed
	m.heap = append(m.heap[:0], s.heap...)
	m.clocks = m.clocks[:0]
	for _, c := range s.clocks {
		m.clocks = append(m.clocks, clockMark{cycle: c.cycle, ticks: c.ticks, woke: c.woke, active: c.active, batch: c.batch})
	}
}

// Reset restores the state of the last Seal: the sealed timers are armed
// again under their sealed keys, every other timer is disarmed, lanes are
// emptied, and time, the sequence counter, the executed-event count and
// every clock domain are as they were. It reports false, changing
// nothing, when there was no usable Seal or a clock domain was added
// since.
func (s *Sim) Reset() bool {
	m := &s.mark
	if !s.sealed || len(s.clocks) != len(m.clocks) {
		return false
	}
	for i := range s.heap {
		s.heap[i].t.idx = -1
	}
	clear(s.heap)
	s.heap = append(s.heap[:0], m.heap...)
	for i := range s.heap {
		e := &s.heap[i]
		e.t.idx, e.t.at = i, e.at
	}
	for _, l := range s.lanes {
		l.reset()
	}
	s.now, s.seq, s.executed = m.now, m.seq, m.executed
	s.firing, s.queued, s.parked = false, 0, nil
	s.horizon, s.fence = Forever, noFence
	for i, c := range s.clocks {
		cm := m.clocks[i]
		c.cycle, c.ticks, c.woke, c.active, c.batch = cm.cycle, cm.ticks, cm.woke, cm.active, cm.batch
	}
	return true
}
