package hw

// Stream is a bounded FIFO of beats connecting two modules — the software
// model of an AXI4-Stream link with a skid buffer: non-full is TREADY,
// non-empty is TVALID. Capacity is in beats.
//
// Streams are not safe for concurrent use; all access happens from the
// single simulation goroutine.
type Stream struct {
	name string
	// buf is a power-of-two ring so beat indexing is a mask, not a
	// modulo — this is the datapath's innermost loop. cap is the logical
	// (TREADY) capacity, which may be smaller than the ring.
	buf  []Beat
	mask int
	cap  int
	head int
	n    int
	// ends counts queued Last beats — how many frame tails are currently
	// in the buffer. A window on a consumed stream stops short of the
	// first one: popping it is a frame-boundary decision.
	ends int
	// Wired to its consumer (Design.Consume), a push wakes module number
	// to of design dsn; otherwise it calls wake, if set.
	dsn  *Design
	wake func()
	// edge points at the owning design's frame-boundary flag (at the
	// stream's own for one built outside a design): set whenever a first
	// or Last beat enters or a Last one leaves, see Design.Advance.
	edge *bool

	pushed uint64

	// One window attempt's declarations about this stream and the mode
	// solved from them (window.go); valid while wgen is the attempt's.
	wgen       uint32
	prod, cons uint8
	mode       uint8
	forward    bool // the producer ticks before the consumer
	consParked bool // the consumer was parked when it declared
	// ownEdge and to sit in the flags' padding, which keeps a Stream
	// inside its allocation size class.
	ownEdge        bool
	to             int32
	prodAt, consAt int
	emit           *Emitter // prod == endEmit
	from           *Stream  // prod == endRelay: the relay's source
}

// ringSize rounds a positive capacity up to a power of two.
func ringSize(n int) int {
	r := 1
	for r < n {
		r <<= 1
	}
	return r
}

// NewStream returns a stream with capacity capBeats. Prefer
// Design.NewStream, which also wires the wake hook to the design's clock.
func NewStream(name string, capBeats int) *Stream {
	if capBeats <= 0 {
		panic("hw: stream capacity must be positive")
	}
	ring := ringSize(capBeats)
	s := &Stream{name: name, buf: make([]Beat, ring), mask: ring - 1, cap: capBeats}
	s.edge = &s.ownEdge
	return s
}

// Name returns the stream's name.
func (s *Stream) Name() string { return s.name }

// Cap returns the stream's capacity in beats.
func (s *Stream) Cap() int { return s.cap }

// Len returns the number of queued beats.
func (s *Stream) Len() int { return s.n }

// CanPush reports whether at least one beat of space is available (TREADY).
func (s *Stream) CanPush() bool { return s.n < s.cap }

// Push enqueues a beat. Pushing to a full stream panics: modules must
// check CanPush first, exactly as hardware must honour TREADY.
func (s *Stream) Push(b Beat) {
	if s.n == s.cap {
		panic("hw: push to full stream " + s.name)
	}
	s.buf[(s.head+s.n)&s.mask] = b
	s.n++
	s.pushed++
	if b.Last {
		s.ends++
	}
	if b.Last || b.Off == 0 {
		*s.edge = true
	}
	if s.dsn != nil {
		s.dsn.wakeModule(s.to)
	} else if s.wake != nil {
		s.wake()
	}
}

// CanPop reports whether a beat is available (TVALID).
func (s *Stream) CanPop() bool { return s.n > 0 }

// Peek returns the head beat without consuming it. It panics when empty.
func (s *Stream) Peek() Beat {
	if s.n == 0 {
		panic("hw: peek on empty stream " + s.name)
	}
	return s.buf[s.head]
}

// Pop dequeues and returns the head beat. It panics when empty.
func (s *Stream) Pop() Beat {
	if s.n == 0 {
		panic("hw: pop on empty stream " + s.name)
	}
	b := s.buf[s.head]
	s.buf[s.head] = Beat{}
	s.head = (s.head + 1) & s.mask
	s.n--
	if b.Last {
		s.ends--
		*s.edge = true
	}
	return b
}

// OnPush installs a callback invoked after every Push, for a stream not
// wired to a consumer (Design.Consume).
func (s *Stream) OnPush(fn func()) { s.wake = fn }

func (s *Stream) consumedBy(d *Design, i int32) { s.dsn, s.to = d, i }

// reset empties the stream and zeroes its statistics (Design.Reset).
// Each queued Last beat's frame goes back to p: a frame is in flight
// where its Last beat is, and its earlier beats, here or downstream,
// go with it.
func (s *Stream) reset(p *FramePool) {
	for i := 0; i < s.n; i++ {
		if b := s.buf[(s.head+i)&s.mask]; b.Last {
			p.Put(b.Frame)
		}
	}
	clear(s.buf)
	s.head, s.n, s.ends = 0, 0, 0
	s.pushed = 0
	s.ownEdge = false
}

// Pushed returns the total number of beats ever pushed.
func (s *Stream) Pushed() uint64 { return s.pushed }

// Emitter streams a stored frame into a Stream as busBytes-wide beats,
// one per Emit call. The zero value means "no frame in progress".
type Emitter struct {
	frame *Frame
	off   int
}

// Active reports whether a frame is in progress.
func (e *Emitter) Active() bool { return e.frame != nil }

// Start begins emitting f from its first byte.
func (e *Emitter) Start(f *Frame) { e.frame, e.off = f, 0 }

// Drop abandons the frame in progress, if any, handing it back to p:
// its Last beat has not been pushed, so nothing downstream owns it. A
// module's Reset drops its emitters.
func (e *Emitter) Drop(p *FramePool) {
	if e.frame != nil {
		p.Put(e.frame)
	}
	*e = Emitter{}
}

// Emit pushes the next beat into out if a frame is in progress and out
// has space; done reports that the beat was the frame's last.
func (e *Emitter) Emit(out *Stream, busBytes int) (pushed, done bool) {
	if e.frame == nil || !out.CanPush() {
		return false, false
	}
	end := e.off + busBytes
	if end >= len(e.frame.Data) {
		out.Push(Beat{Frame: e.frame, Off: e.off, End: len(e.frame.Data), Last: true})
		e.frame = nil
		return true, true
	}
	out.Push(Beat{Frame: e.frame, Off: e.off, End: end})
	e.off = end
	return true, false
}

// beatsLeft returns how many more beats the frame in progress needs,
// the Last one included.
func (e *Emitter) beatsLeft(busBytes int) int {
	return (len(e.frame.Data) - e.off + busBytes - 1) / busBytes
}

// beat returns the i-th upcoming beat; only asked for non-Last ones.
func (e *Emitter) beat(i, busBytes int) Beat {
	off := e.off + i*busBytes
	return Beat{Frame: e.frame, Off: off, End: off + busBytes}
}

// FrameQueue is a bounded frame-granularity queue used at datapath edges:
// MAC rx/tx buffers, DMA rings and output queues. Bounds are expressed in
// both frames and bytes (either may be 0, meaning unlimited) so it can
// model BRAM-backed buffers (byte-bound) and descriptor rings
// (frame-bound).
type FrameQueue struct {
	name      string
	capFrames int
	capBytes  int
	// frames is a power-of-two ring indexed with mask, like Stream.buf.
	frames []*Frame
	mask   int
	head   int
	n      int
	bytes  int
	// dsn, to and wake are as on Stream.
	dsn  *Design
	wake func()
	// edge is as Stream.edge: set by every Push and Pop.
	edge    *bool
	ownEdge bool
	to      int32

	drops   uint64
	highWtr uint64
}

// frameRingStart is a new FrameQueue's ring size (a power of two).
const frameRingStart = 16

// NewFrameQueue returns a queue bounded by capFrames frames and capBytes
// bytes; a zero bound is unlimited (but at least one must be set).
func NewFrameQueue(name string, capFrames, capBytes int) *FrameQueue {
	if capFrames <= 0 && capBytes <= 0 {
		panic("hw: frame queue needs at least one bound")
	}
	// The ring starts small and doubles on demand (Push), so a queue
	// that never fills — most of them, in a short run — costs 128 bytes,
	// not its bound.
	ring := frameRingStart
	if capFrames > 0 && capFrames < ring {
		ring = ringSize(capFrames)
	}
	q := &FrameQueue{name: name, capFrames: capFrames, capBytes: capBytes,
		frames: make([]*Frame, ring), mask: ring - 1}
	q.edge = &q.ownEdge
	return q
}

// Len returns the number of queued frames.
func (q *FrameQueue) Len() int { return q.n }

// Bytes returns the number of queued bytes.
func (q *FrameQueue) Bytes() int { return q.bytes }

// CanAccept reports whether a frame of n bytes fits.
func (q *FrameQueue) CanAccept(n int) bool {
	if q.capFrames > 0 && q.n >= q.capFrames {
		return false
	}
	if q.capBytes > 0 && q.bytes+n > q.capBytes {
		return false
	}
	return true
}

// Push enqueues the frame, or counts a drop and reports false if it does
// not fit — tail-drop, as in the reference output queues.
func (q *FrameQueue) Push(f *Frame) bool {
	if !q.CanAccept(len(f.Data)) {
		q.drops++
		return false
	}
	if q.n == len(q.frames) { // grow the ring
		bigger := make([]*Frame, 2*len(q.frames))
		for i := 0; i < q.n; i++ {
			bigger[i] = q.frames[(q.head+i)&q.mask]
		}
		q.frames, q.head, q.mask = bigger, 0, len(bigger)-1
	}
	q.frames[(q.head+q.n)&q.mask] = f
	q.n++
	q.bytes += len(f.Data)
	*q.edge = true
	if uint64(q.n) > q.highWtr {
		q.highWtr = uint64(q.n)
	}
	if q.dsn != nil {
		q.dsn.wakeModule(q.to)
	} else if q.wake != nil {
		q.wake()
	}
	return true
}

// Pop dequeues the head frame, or nil if empty.
func (q *FrameQueue) Pop() *Frame {
	if q.n == 0 {
		return nil
	}
	f := q.frames[q.head]
	q.frames[q.head] = nil
	q.head = (q.head + 1) & q.mask
	q.n--
	q.bytes -= len(f.Data)
	*q.edge = true
	return f
}

// At returns the i-th queued frame counted from the head (0 is the next
// Pop), or nil when fewer than i+1 frames are queued.
func (q *FrameQueue) At(i int) *Frame {
	if i < 0 || i >= q.n {
		return nil
	}
	return q.frames[(q.head+i)&q.mask]
}

// OnPush installs a callback invoked after every successful Push, for a
// queue not wired to a consumer (Design.Consume).
func (q *FrameQueue) OnPush(fn func()) { q.wake = fn }

func (q *FrameQueue) consumedBy(d *Design, i int32) { q.dsn, q.to = d, i }

// Consumed reports whether a design module consumes the queue
// (Design.Consume).
func (q *FrameQueue) Consumed() bool { return q.dsn != nil }

// Reset empties the queue, handing the frames it held back to p (a nil
// p drops them), and zeroes its statistics. The ring keeps the size it
// grew to.
func (q *FrameQueue) Reset(p *FramePool) {
	for i := 0; i < q.n; i++ {
		p.Put(q.frames[(q.head+i)&q.mask])
	}
	clear(q.frames)
	q.head, q.n, q.bytes = 0, 0, 0
	q.drops, q.highWtr = 0, 0
	q.ownEdge = false
}

// DropCounter returns the queue's drop counter as a spine entry of the
// given name and kind, for the module that owns the queue to list among
// its own counters. It is the one way a queue's drops reach the spine:
// QueueDrop for a buffer whose overflow is traffic loss (a receive FIFO,
// an output queue), Count for a ring whose overflow is accounted
// elsewhere.
func (q *FrameQueue) DropCounter(name string, kind CounterKind) Counter {
	return Counter{Name: name, Ptr: &q.drops, Kind: kind}
}

// HighWaterCounter returns the queue's peak frame occupancy as a spine
// entry named name.
func (q *FrameQueue) HighWaterCounter(name string) Counter {
	return Counter{Name: name, Ptr: &q.highWtr}
}
