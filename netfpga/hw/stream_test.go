package hw

import (
	"testing"
	"testing/quick"
)

func TestStreamFIFOOrder(t *testing.T) {
	s := NewStream("s", 4)
	f := NewFrame(make([]byte, 100), 0)
	for i := 0; i < 3; i++ {
		s.Push(Beat{Frame: f, Off: i * 32, End: (i + 1) * 32})
	}
	for i := 0; i < 3; i++ {
		b := s.Pop()
		if b.Off != i*32 {
			t.Fatalf("beat %d has offset %d", i, b.Off)
		}
	}
	if s.CanPop() {
		t.Fatal("stream should be empty")
	}
}

func TestStreamBackpressure(t *testing.T) {
	s := NewStream("s", 2)
	f := NewFrame(make([]byte, 64), 0)
	s.Push(Beat{Frame: f, Off: 0, End: 32})
	s.Push(Beat{Frame: f, Off: 32, End: 64, Last: true})
	if s.CanPush() {
		t.Fatal("full stream reports CanPush")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("push to full stream should panic")
		}
	}()
	s.Push(Beat{Frame: f})
}

func TestStreamWrapAround(t *testing.T) {
	s := NewStream("s", 3)
	f := NewFrame(make([]byte, 4096), 0)
	for round := 0; round < 100; round++ {
		s.Push(Beat{Frame: f, Off: round, End: round + 1})
		got := s.Pop()
		if got.Off != round {
			t.Fatalf("round %d: popped offset %d", round, got.Off)
		}
	}
	if s.Pushed() != 100 {
		t.Fatalf("pushed = %d", s.Pushed())
	}
}

func TestStreamWakeHook(t *testing.T) {
	s := NewStream("s", 4)
	woke := 0
	s.OnPush(func() { woke++ })
	f := NewFrame(make([]byte, 10), 0)
	s.Push(Beat{Frame: f, Off: 0, End: 10, Last: true})
	if woke != 1 {
		t.Fatalf("wake called %d times, want 1", woke)
	}
}

// pushFrame streams f into s as busBytes-wide beats through an Emitter,
// as a module streams a stored frame. It reports false if s fills first.
func pushFrame(s *Stream, f *Frame, busBytes int) bool {
	var e Emitter
	for e.Start(f); e.Active(); {
		if pushed, _ := e.Emit(s, busBytes); !pushed {
			return false
		}
	}
	return true
}

func TestPushFrameBeatDecomposition(t *testing.T) {
	s := NewStream("s", 16)
	data := make([]byte, 70) // 3 beats at 32B: 32+32+6
	for i := range data {
		data[i] = byte(i)
	}
	f := NewFrame(data, 2)
	if !pushFrame(s, f, 32) {
		t.Fatal("push failed with ample space")
	}
	if s.Len() != 3 {
		t.Fatalf("frame of 70B split into %d beats, want 3", s.Len())
	}
	var rebuilt []byte
	for s.CanPop() {
		b := s.Pop()
		rebuilt = append(rebuilt, b.Frame.Data[b.Off:b.End]...)
		if b.Last != !s.CanPop() {
			t.Fatal("Last flag misplaced")
		}
	}
	if string(rebuilt) != string(data) {
		t.Fatal("beat reassembly does not match original frame")
	}
}

// Property: any frame pushed as beats reassembles to itself, for random
// sizes and bus widths.
func TestFrameBeatRoundTripProperty(t *testing.T) {
	f := func(data []byte, widthSel uint8) bool {
		widths := []int{8, 16, 32, 64}
		bus := widths[int(widthSel)%len(widths)]
		if len(data) == 0 {
			data = []byte{0}
		}
		fr := NewFrame(data, 0)
		s := NewStream("p", (len(data)+bus-1)/bus)
		if !pushFrame(s, fr, bus) {
			return false
		}
		var out []byte
		for s.CanPop() {
			b := s.Pop()
			out = append(out, b.Frame.Data[b.Off:b.End]...)
		}
		if len(out) != len(data) {
			return false
		}
		for i := range out {
			if out[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameQueueBounds(t *testing.T) {
	q := NewFrameQueue("q", 2, 0)
	a, b, c := NewFrame(make([]byte, 10), 0), NewFrame(make([]byte, 10), 0), NewFrame(make([]byte, 10), 0)
	if !q.Push(a) || !q.Push(b) {
		t.Fatal("pushes within bound failed")
	}
	if q.Push(c) {
		t.Fatal("push beyond frame bound succeeded")
	}
	if q.drops != 1 {
		t.Fatalf("drops = %d, want 1", q.drops)
	}
	if q.Pop() != a || q.Pop() != b || q.Pop() != nil {
		t.Fatal("FIFO order violated")
	}
}

func TestFrameQueueByteBound(t *testing.T) {
	q := NewFrameQueue("q", 0, 100)
	if !q.Push(NewFrame(make([]byte, 60), 0)) {
		t.Fatal("first push failed")
	}
	if q.Push(NewFrame(make([]byte, 50), 0)) {
		t.Fatal("second push should exceed byte bound")
	}
	if !q.Push(NewFrame(make([]byte, 40), 0)) {
		t.Fatal("fitting push failed")
	}
	if q.Bytes() != 100 {
		t.Fatalf("bytes = %d, want 100", q.Bytes())
	}
}

func TestFrameQueueRingGrowth(t *testing.T) {
	q := NewFrameQueue("q", 0, 1<<20) // byte-bound only: ring must grow
	var frames []*Frame
	for i := 0; i < 500; i++ {
		f := NewFrame(make([]byte, 10), 0)
		f.Meta.TraceID = uint64(i)
		frames = append(frames, f)
		if !q.Push(f) {
			t.Fatalf("push %d failed", i)
		}
	}
	for i := 0; i < 500; i++ {
		f := q.Pop()
		if f == nil || f.Meta.TraceID != uint64(i) {
			t.Fatalf("pop %d out of order", i)
		}
	}
}

// Property: FrameQueue preserves FIFO order under arbitrary interleavings
// of pushes and pops.
func TestFrameQueueOrderProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewFrameQueue("q", 32, 0)
		next := uint64(0)
		expect := uint64(0)
		for _, push := range ops {
			if push {
				fr := NewFrame([]byte{1}, 0)
				fr.Meta.TraceID = next
				if q.Push(fr) {
					next++
				}
			} else if fr := q.Pop(); fr != nil {
				if fr.Meta.TraceID != expect {
					return false
				}
				expect++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPortMasks(t *testing.T) {
	if PortMask(0) != 1 || PortMask(3) != 8 {
		t.Fatal("PortMask wrong")
	}
	if HostPortMask(0) != 1<<8 {
		t.Fatal("HostPortMask wrong")
	}
	if AllPortsMask(4) != 0xF {
		t.Fatal("AllPortsMask wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range port should panic")
		}
	}()
	PortMask(MaxPorts)
}

func TestFrameClone(t *testing.T) {
	f := NewFrame([]byte{1, 2, 3}, 1)
	f.Meta.DstPorts = 0xF
	g := f.Clone()
	g.Data[0] = 99
	g.Meta.DstPorts = 1
	if f.Data[0] != 1 || f.Meta.DstPorts != 0xF {
		t.Fatal("clone aliases original")
	}
}
