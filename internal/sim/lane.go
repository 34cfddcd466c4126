package sim

// Lane is the completion queue of a serialising resource — a memory
// port, one direction of a PCIe link, a disk — whose operations finish
// in the order they were issued. Post(at, v) is observably identical to
// Sim.At(at, func() { fire(v) }): the event's sequence number is reserved
// at post time, so it fires at exactly the same place in the global
// (time, sequence) order, and Executed and Pending count it the same.
// The difference is cost: only the lane's head occupies the event heap
// (the rest wait in a FIFO that holds v by value), so a burst of N
// outstanding operations is N FIFO slots and one timer instead of N heap
// entries, N timers and N closures.
type Lane[T any] struct {
	sim   *Sim
	timer *Timer
	fire  func(T)
	// The FIFO is a chain of fixed-size blocks: posts fill tail at ti,
	// completions drain head at hi, and the timer is armed for
	// head.e[hi]. Growing never copies, and drained blocks go on the
	// spare list for reuse, so a lane holds memory for its deepest
	// backlog, not its history, and one whose backlog has peaked —
	// continuous DMA never lets it empty — allocates nothing.
	head, tail *laneBlock[T]
	hi, ti     int
	spare      *laneBlock[T] // free list, linked through next
	n          int
	last       Time
}

const laneBlockLen = 64

type laneBlock[T any] struct {
	e    [laneBlockLen]laneEntry[T]
	next *laneBlock[T]
}

type laneEntry[T any] struct {
	at  Time
	seq uint64
	v   T
}

// NewLane returns an empty lane on s that completes operations by
// calling fire.
func NewLane[T any](s *Sim, fire func(T)) *Lane[T] {
	l := &Lane[T]{sim: s, fire: fire}
	l.timer = s.NewTimer(l.complete)
	s.lanes = append(s.lanes, l)
	return l
}

// reset drops every posted completion, keeping the blocks as spares; the
// simulator disarms the timer and zeroes its queued count (Sim.Reset).
func (l *Lane[T]) reset() {
	for b := l.head; b != nil; {
		next := b.next
		clear(b.e[:])
		b.next, l.spare = l.spare, b
		b = next
	}
	l.head, l.tail, l.hi, l.ti, l.n, l.last = nil, nil, 0, 0, 0, 0
}

// Post schedules fire(v) at absolute time at. Completion times on one
// lane must be non-decreasing; posting an earlier time than the previous
// post panics, as the resource the lane models cannot reorder.
func (l *Lane[T]) Post(at Time, v T) {
	s := l.sim
	if at < l.last {
		panic("sim: lane completion posted out of order")
	}
	if at < s.now {
		panic("sim: event scheduled in the past")
	}
	l.last = at
	s.seq++
	if l.tail == nil || l.ti == laneBlockLen {
		b := l.spare
		if b == nil {
			b = new(laneBlock[T])
		} else {
			l.spare, b.next = b.next, nil
		}
		if l.tail == nil {
			l.head, l.hi = b, 0
		} else {
			l.tail.next = b
		}
		l.tail, l.ti = b, 0
	}
	l.tail.e[l.ti] = laneEntry[T]{at: at, seq: s.seq, v: v}
	l.ti++
	l.n++
	if l.n == 1 {
		l.timer.arm(at, s.seq)
	} else {
		s.queued++
	}
}

// Len returns the number of posted completions that have not fired.
func (l *Lane[T]) Len() int { return l.n }

// Each calls fn with the value of every posted completion that has not
// fired, in completion order, so an owner can reclaim what they own
// before Sim.Reset empties the lane.
func (l *Lane[T]) Each(fn func(T)) {
	b, i := l.head, l.hi
	for k := 0; k < l.n; k++ {
		if i == laneBlockLen {
			b, i = b.next, 0
		}
		fn(b.e[i].v)
		i++
	}
}

// complete fires the head. The next completion takes over the heap slot
// first, so the callback sees it through Peek and Pending exactly as it
// would see a separately scheduled event.
func (l *Lane[T]) complete() {
	b := l.head
	v := b.e[l.hi].v
	b.e[l.hi] = laneEntry[T]{} // drop references the block would otherwise pin
	l.hi++
	l.n--
	if l.hi == laneBlockLen {
		l.head, l.hi = b.next, 0
		if l.head == nil {
			l.tail = nil
		}
		b.next, l.spare = l.spare, b
	}
	if l.n > 0 {
		next := &l.head.e[l.hi]
		l.sim.queued--
		l.timer.arm(next.at, next.seq)
	}
	l.fire(v)
}
