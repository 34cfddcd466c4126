package hw

import (
	"strings"
	"testing"
	"unsafe"
)

// buf returns the first byte of f's buffer, which two frames share
// exactly when they hold the same buffer.
func buf(f *Frame) *byte { return &f.Data[:cap(f.Data)][0] }

// mustPanic runs f and returns what it panicked with, failing the test
// when it does not panic.
func mustPanic(t *testing.T, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if v := recover(); v != nil {
				msg, _ = v.(string)
			} else {
				t.Fatal("no panic")
			}
		}()
		f()
	}()
	return msg
}

// TestFrameStaysInItsSizeClass: the free flag sits in Frame's padding.
func TestFrameStaysInItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Frame{}); n > 80 {
		t.Fatalf("Frame is %d bytes, past the 80-byte size class", n)
	}
}

// TestPutTwicePanics: a frame goes back to its pool once; the second Put
// names the frame.
func TestPutTwicePanics(t *testing.T) {
	p := &FramePool{}
	f := p.Get(100)
	f.Meta.Flags = FlagFromCPU
	p.Put(f)
	msg := mustPanic(t, func() { p.Put(f) })
	if !strings.Contains(msg, "already free") || !strings.Contains(msg, "len 100") {
		t.Errorf("panic %q does not name the frame", msg)
	}
	if len(p.free) != 1 {
		t.Errorf("%d free frames after a refused second Put, want 1", len(p.free))
	}
}

// TestShareClonePairRecyclesOnce: two sharers put in either order hand
// the buffer back once, and neither can be put again.
func TestShareClonePairRecyclesOnce(t *testing.T) {
	for _, firstOriginal := range []bool{true, false} {
		p := &FramePool{}
		f := p.Get(64)
		c := p.ShareClone(f)
		a, b := c, f
		if firstOriginal {
			a, b = f, c
		}
		p.Put(a)
		p.Put(b)
		if len(p.free) != 1 || len(p.shells) != 1 {
			t.Fatalf("first original %v: %d free frames and %d shells, want 1 and 1", firstOriginal, len(p.free), len(p.shells))
		}
		mustPanic(t, func() { p.Put(a) })
		mustPanic(t, func() { p.Put(b) })
		g, h := p.Get(64), p.Get(64)
		if buf(g) == buf(h) {
			t.Fatalf("first original %v: the shared buffer was handed out twice", firstOriginal)
		}
	}
}

// holder streams one frame into out through an emitter; its Reset drops
// the emitter's frame.
type holder struct {
	d    *Design
	out  *Stream
	emit Emitter
}

func (h *holder) Name() string         { return "holder" }
func (h *holder) Resources() Resources { return Resources{} }
func (h *holder) Tick() bool           { return false }
func (h *holder) Reset()               { h.emit.Drop(h.d.Pool()) }

// TestResetRecyclesInFlightOnce: a design Reset hands back each frame in
// flight exactly once — whole in a stream, half emitted (its Last beat
// still the emitter's), queued, shared between two queue entries — and
// Get after it never returns a buffer a frame the design handed out
// still holds.
func TestResetRecyclesInFlightOnce(t *testing.T) {
	_, d := newTestDesign(t)
	out := d.NewStream("out", 16)
	q := d.NewFrameQueue("q", 0, 1<<16)
	h := &holder{d: d, out: out}
	d.AddModule(h)
	d.Seal()
	p := d.Pool()

	whole := p.Get(100)
	if !pushFrame(out, whole, d.BusBytes()) {
		t.Fatal("stream refused a frame")
	}
	half := p.Get(100)
	h.emit.Start(half)
	if pushed, done := h.emit.Emit(out, d.BusBytes()); !pushed || done {
		t.Fatal("emitter did not push a first beat")
	}
	shared := p.Get(64)
	q.Push(shared)
	q.Push(p.ShareClone(shared))
	live := p.Get(64) // handed out: the design holds it nowhere

	if !d.Reset() {
		t.Fatal("Reset refused a sealed design")
	}
	if len(p.free) != 3 || len(p.shells) != 1 {
		t.Fatalf("%d free frames and %d shells after Reset, want 3 and 1", len(p.free), len(p.shells))
	}
	seen := map[*byte]bool{buf(live): true}
	for range 4 {
		g := p.Get(64)
		if seen[buf(g)] {
			t.Fatal("Get returned a buffer a live frame holds")
		}
		seen[buf(g)] = true
	}
	p.Put(live)
}
