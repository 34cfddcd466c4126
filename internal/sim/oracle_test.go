package sim

// refSim is the event core this package shipped before the value-typed
// heap: a binary heap of *refTimer ordered by (at, seq), where Step
// removes the firing timer before its callback and every re-arm is a
// remove plus a push. It is kept verbatim as the oracle the differential
// tests and fuzz targets compare the production core against; it has no
// clocks, horizons or fences, only the queue semantics.
type refSim struct {
	now      Time
	seq      uint64
	heap     []*refTimer
	executed uint64
}

type refTimer struct {
	sim *refSim
	at  Time
	seq uint64
	idx int
	fn  func()
}

func (s *refSim) Now() Time        { return s.now }
func (s *refSim) Executed() uint64 { return s.executed }
func (s *refSim) Pending() int     { return len(s.heap) }

func (s *refSim) NewTimer(fn func()) *refTimer { return &refTimer{sim: s, idx: -1, fn: fn} }

func (t *refTimer) ScheduleAt(at Time) {
	s := t.sim
	if at < s.now {
		panic("sim: event scheduled in the past")
	}
	t.at = at
	s.seq++
	t.seq = s.seq
	if t.idx >= 0 {
		s.fix(t.idx)
		return
	}
	s.push(t)
}

func (t *refTimer) Stop() bool {
	if t.idx < 0 {
		return false
	}
	t.sim.remove(t.idx)
	return true
}

func (t *refTimer) Pending() bool { return t.idx >= 0 }

func (s *refSim) At(at Time, fn func()) *refTimer {
	t := s.NewTimer(fn)
	t.ScheduleAt(at)
	return t
}

func (s *refSim) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	t := s.heap[0]
	s.remove(0)
	s.now = t.at
	s.executed++
	t.fn()
	return true
}

func (s *refSim) Peek() (Time, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

func (s *refSim) less(i, j int) bool {
	a, b := s.heap[i], s.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *refSim) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].idx = i
	s.heap[j].idx = j
}

func (s *refSim) push(t *refTimer) {
	t.idx = len(s.heap)
	s.heap = append(s.heap, t)
	s.up(t.idx)
}

func (s *refSim) remove(i int) {
	t := s.heap[i]
	last := len(s.heap) - 1
	if i != last {
		s.swap(i, last)
	}
	s.heap[last] = nil
	s.heap = s.heap[:last]
	if i != last && i < len(s.heap) {
		s.fix(i)
	}
	t.idx = -1
}

func (s *refSim) fix(i int) {
	s.down(i)
	s.up(i)
}

func (s *refSim) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *refSim) down(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s.less(l, small) {
			small = l
		}
		if r < n && s.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		s.swap(i, small)
		i = small
	}
}
