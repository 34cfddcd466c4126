package hw

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// TestShareCloneBasics: sharers alias the buffer, carry independent
// metadata, and the pool recycles the buffer exactly once — with the
// last Put, whoever that is.
func TestShareCloneBasics(t *testing.T) {
	p := &FramePool{}
	f := p.Get(64)
	for i := range f.Data {
		f.Data[i] = 7
	}
	f.Meta.DstPorts = 0b11

	c := p.ShareClone(f)
	if &c.Data[0] != &f.Data[0] {
		t.Fatal("ShareClone copied the buffer")
	}
	if c == f {
		t.Fatal("ShareClone returned the same frame")
	}
	c.Meta.DstPorts = 0b01
	if f.Meta.DstPorts != 0b11 {
		t.Fatal("metadata not independent")
	}
	if !f.Shared() || !c.Shared() {
		t.Fatal("sharing not visible")
	}

	// First Put surrenders the buffer as a shell; the buffer stays
	// usable through the surviving sharer.
	p.Put(c)
	if f.Shared() {
		t.Fatal("still marked shared after the other sharer left")
	}
	if f.Data[3] != 7 {
		t.Fatal("buffer corrupted by first Put")
	}
	if len(p.free) != 0 || len(p.shells) != 1 {
		t.Fatalf("pool state after first Put: free=%d shells=%d", len(p.free), len(p.shells))
	}

	// Last Put carries the buffer home.
	p.Put(f)
	if len(p.free) != 1 || len(p.shares) != 1 {
		t.Fatalf("pool state after last Put: free=%d shares=%d", len(p.free), len(p.shares))
	}
	g := p.Get(64)
	if &g.Data[0] != &f.Data[0] {
		t.Fatal("recycled buffer not reused")
	}
}

// TestShareCloneSteadyStateZeroAlloc: after warmup, a replicate-and-
// release cycle allocates nothing — shells and refcount cells recycle.
func TestShareCloneSteadyStateZeroAlloc(t *testing.T) {
	p := &FramePool{}
	cycle := func() {
		f := p.Get(256)
		a := p.ShareClone(f)
		b := p.ShareClone(f)
		p.Put(a)
		p.Put(f)
		p.Put(b)
	}
	cycle() // warm the shell/share free lists
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("steady-state share cycle allocates %.1f objects/op", avg)
	}
}

// TestShareCloneFuzz: random share/put interleavings against a
// reference count, checking the buffer is recycled exactly when the
// last sharer leaves and never before.
func TestShareCloneFuzz(t *testing.T) {
	rng := sim.NewRand(99)
	p := &FramePool{}
	for round := 0; round < 200; round++ {
		f := p.Get(32)
		f.Data[0] = byte(round)
		live := []*Frame{f}
		for op := 0; op < 30; op++ {
			switch r := rng.Intn(3); {
			case r == 2:
				// Churn the pool: if the shared buffer were recycled
				// early, this Get would grab it and the 0xFF scribble
				// would show up through a live sharer below.
				g := p.Get(32)
				g.Data[0] = 0xFF
				p.Put(g)
			case r == 0 || len(live) == 1:
				src := live[rng.Intn(len(live))]
				live = append(live, p.ShareClone(src))
			default:
				i := rng.Intn(len(live))
				vic := live[i]
				live = append(live[:i], live[i+1:]...)
				if vic.Data[0] != byte(round) {
					t.Fatalf("round %d: buffer clobbered before release", round)
				}
				p.Put(vic)
			}
		}
		for _, fr := range live {
			if fr.Data[0] != byte(round) {
				t.Fatalf("round %d: live sharer sees clobbered data", round)
			}
			p.Put(fr)
		}
	}
}

// TestShareCloneNilPool degrades to a deep copy.
func TestShareCloneNilPool(t *testing.T) {
	var p *FramePool
	f := NewFrame([]byte{1, 2, 3}, 0)
	c := p.ShareClone(f)
	if &c.Data[0] == &f.Data[0] {
		t.Fatal("nil pool must deep-copy")
	}
	if !bytes.Equal(c.Data, f.Data) {
		t.Fatal("deep copy differs")
	}
	p.Put(c) // must not panic
}

// TestArenaCopiesStayValid: every copy an Arena hands out keeps its
// bytes across chunk boundaries and a dropped arena, and appending to one
// never overwrites the next.
func TestArenaCopiesStayValid(t *testing.T) {
	var a Arena
	var copies [][]byte
	for i := 0; i < 300; i++ {
		b := make([]byte, 1+i*7%1500)
		for j := range b {
			b[j] = byte(i)
		}
		copies = append(copies, a.Copy(b))
		if i == 150 {
			a = Arena{}
		}
	}
	_ = append(copies[10], 0xFF)
	for i, c := range copies {
		if len(c) != 1+i*7%1500 || cap(c) != len(c) {
			t.Fatalf("copy %d: len %d cap %d", i, len(c), cap(c))
		}
		for _, x := range c {
			if x != byte(i) {
				t.Fatalf("copy %d overwritten", i)
			}
		}
	}
}
