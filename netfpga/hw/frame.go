// Package hw is gonetfpga's hardware-description substrate: the framework
// in which datapath designs are expressed as graphs of cycle-stepped
// modules exchanging bus-width beats over backpressured streams, mirroring
// the AXI4-Stream interconnect of the physical NetFPGA platforms.
//
// A design is built from Modules connected by Streams, registered on a
// datapath clock, and "synthesized" against a target FPGA: connectivity is
// validated and per-module resource estimates are summed into a
// utilization report — the software analogue of the Xilinx toolchain
// reports NetFPGA users compare across projects.
//
// Real NetFPGA SUME reference designs run a 256-bit AXI4-Stream datapath
// at 200 MHz; those are the defaults here, and both are parameterisable.
package hw

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Time re-exports the simulator's picosecond time type so public API users
// never need to import an internal package.
type Time = sim.Time

// Re-exported duration units.
const (
	Picosecond  = sim.Picosecond
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Port numbering: a design addresses destinations with a one-hot mask.
// Physical ports occupy bits [0, 8); host (DMA) queues occupy bits [8, 16).
// This mirrors the NetFPGA TUSER convention of interleaved physical/DMA
// destination bits, flattened into two contiguous byte-sized groups.
const (
	MaxPorts     = 8 // physical ports per design
	HostPortBase = 8 // first host (DMA) queue bit
	MaxHostPorts = 8
)

// PortMask returns the one-hot destination mask for physical port i.
func PortMask(i int) uint32 {
	if i < 0 || i >= MaxPorts {
		panic(fmt.Sprintf("hw: physical port %d out of range", i))
	}
	return 1 << uint(i)
}

// HostPortMask returns the one-hot destination mask for host queue i.
func HostPortMask(i int) uint32 {
	if i < 0 || i >= MaxHostPorts {
		panic(fmt.Sprintf("hw: host port %d out of range", i))
	}
	return 1 << uint(HostPortBase+i)
}

// AllPortsMask returns a mask of physical ports [0, n) — the flood mask.
func AllPortsMask(n int) uint32 {
	if n < 0 || n > MaxPorts {
		panic(fmt.Sprintf("hw: port count %d out of range", n))
	}
	return (1 << uint(n)) - 1
}

// Meta flags.
const (
	// FlagFromHost marks frames injected by the host through DMA.
	FlagFromHost uint16 = 1 << iota
	// FlagTimestamped marks frames carrying a valid ingress timestamp.
	FlagTimestamped
	// FlagFromCPU marks frames injected by a device agent (the slow
	// path); lookup stages forward them without re-deciding, which
	// prevents punt loops.
	FlagFromCPU
)

// Meta is the sideband metadata accompanying a frame through the datapath,
// the analogue of the 128-bit TUSER word on NetFPGA's AXI4-Stream buses.
type Meta struct {
	// SrcPort is the ingress port index (physical port or HostPortBase+i
	// for host-injected frames).
	SrcPort uint8
	// DstPorts is the one-hot destination mask; zero means "drop".
	DstPorts uint32
	// Len is the frame length in bytes, set at ingress.
	Len uint16
	// Ingress is the frame's ingress timestamp.
	Ingress Time
	// Flags carries Flag* bits.
	Flags uint16
	// User is a free-form metadata word for project-specific sideband
	// state (tags, versions), as real designs stash in spare TUSER bits.
	User uint32
	// TraceID identifies the frame in workloads and tests (not a hardware
	// field; zero in normal operation).
	TraceID uint64
}

// Frame is a packet traversing the datapath: its wire bytes (without FCS)
// plus metadata. A Frame is shared by reference between beats, so module
// code must treat Data as immutable once the frame has been handed to a
// stream; modules that rewrite headers do so while the frame is private to
// them (between popping the last beat and pushing the first).
type Frame struct {
	Data []byte
	Meta Meta
	// ref, when non-nil, counts the Frames sharing this Data buffer
	// (zero-copy multicast replication, see FramePool.ShareClone). The
	// pool recycles the buffer only when the last sharer is Put. Frames
	// with shared Data are frozen: nothing downstream of the sharing
	// point may write Data.
	ref *frameShare
	// free is set while the frame is the pool's: from Put until Get or
	// ShareClone hands it out again. It sits in the struct's tail
	// padding, which keeps a Frame in the 80-byte size class.
	free bool
}

// frameShare is the reference count behind a shared Data buffer. It is
// not atomic: frames never leave their owning simulation goroutine.
type frameShare struct {
	n int32
}

// NewFrame builds a frame over data arriving on srcPort.
func NewFrame(data []byte, srcPort uint8) *Frame {
	return &Frame{Data: data, Meta: Meta{SrcPort: srcPort, Len: uint16(len(data))}}
}

// Clone returns a deep copy of the frame. Multicast replication clones so
// per-copy metadata (destination masks, rewrites) stays independent.
func (f *Frame) Clone() *Frame {
	g := &Frame{Data: make([]byte, len(f.Data)), Meta: f.Meta}
	copy(g.Data, f.Data)
	return g
}

// FramePool is a free list recycling Frames and their Data buffers
// through the datapath hot path, so steady-state traffic stops paying
// allocator and GC cost per frame. It is deliberately not a sync.Pool:
// each simulation runs confined to one goroutine, and a plain slice keeps
// reuse deterministic and free of atomics. A nil *FramePool is valid and
// degrades to plain allocation, so optional pooling costs callers no
// branches.
//
// Ownership contract: Put hands the pool exclusive ownership of the frame
// AND its Data array — nothing else may retain either. Consumers that
// expose received bytes to callers (for example core.PortTap) copy the
// payload out before recycling the frame. A frame goes back once: Put
// panics on a frame that is already free.
type FramePool struct {
	free []*Frame
	// shells are recycled Frame structs without a Data buffer: a frame
	// Put while other sharers still hold its Data surrenders the buffer
	// and parks here. ShareClone draws from shells, so steady-state
	// multicast replication allocates neither bytes nor structs — the
	// shells released at the egress edge are exactly the shells the
	// route stage needs next.
	shells []*Frame
	// shares recycles the refcount cells.
	shares []*frameShare
}

// maxPoolFrames bounds the free list so a burst of retained-then-released
// frames cannot pin unbounded memory.
const maxPoolFrames = 4096

// Get returns a frame with Data sized to n bytes. The bytes are NOT
// zeroed when the frame comes from the free list; callers overwrite the
// full window. Meta is zeroed.
func (p *FramePool) Get(n int) *Frame {
	if p == nil || len(p.free) == 0 {
		return &Frame{Data: make([]byte, n)}
	}
	f := p.free[len(p.free)-1]
	p.free[len(p.free)-1] = nil
	p.free = p.free[:len(p.free)-1]
	f.free = false
	if cap(f.Data) < n {
		f.Data = make([]byte, n)
	} else {
		f.Data = f.Data[:n]
	}
	return f
}

// Put recycles a frame the caller exclusively owns. The frame and its
// Data must not be used after Put. A frame whose Data is shared
// (ShareClone) surrenders the buffer unless it is the last sharer:
// earlier sharers recycle as data-less shells, the final one carries
// the buffer back to the free list. Putting a frame that is already
// free panics: a second owner would otherwise share its buffer with
// whoever Get hands it to next.
func (p *FramePool) Put(f *Frame) {
	if f == nil {
		return
	}
	if f.free {
		panic(fmt.Sprintf("hw: FramePool.Put of a frame that is already free (len %d, flags %#x)", len(f.Data), f.Meta.Flags))
	}
	f.free = true
	if r := f.ref; r != nil {
		f.ref = nil
		r.n--
		if r.n > 0 {
			// Another sharer still owns the bytes: recycle only the
			// struct.
			f.Data = nil
			if p != nil && len(p.shells) < maxPoolFrames {
				f.Meta = Meta{}
				p.shells = append(p.shells, f)
			}
			return
		}
		if p != nil && len(p.shares) < maxPoolFrames {
			p.shares = append(p.shares, r)
		}
	}
	if p == nil || len(p.free) >= maxPoolFrames {
		return
	}
	f.Meta = Meta{}
	p.free = append(p.free, f)
}

// Move moves up to n of from's free frames, the most recently freed
// first, into p, and returns how many it moved. Devices that run one
// after another hand their free frames on this way instead of each
// keeping its own; Trim bounds what p then keeps.
func (p *FramePool) Move(from *FramePool, n int) int {
	if n = min(n, len(from.free)); n <= 0 {
		return 0
	}
	k := len(from.free) - n
	p.free = append(p.free, from.free[k:]...)
	clear(from.free[k:])
	from.free = from.free[:k]
	return n
}

// Trim lets go of free frames, those with the largest buffers first,
// until those it keeps are within the pool's bound and their buffers
// total at most maxBytes of capacity: a few jumbo buffers would
// otherwise crowd out the many small frames most traffic draws.
func (p *FramePool) Trim(maxBytes int) {
	n := 0
	for _, f := range p.free {
		n += cap(f.Data)
	}
	if n <= maxBytes && len(p.free) <= maxPoolFrames {
		return
	}
	slices.SortFunc(p.free, func(a, b *Frame) int { return cap(a.Data) - cap(b.Data) })
	n = 0
	for i, f := range p.free {
		if n += cap(f.Data); n > maxBytes || i == maxPoolFrames {
			clear(p.free[i:])
			p.free = p.free[:i]
			return
		}
	}
}

// Clone is Frame.Clone drawing storage from the pool.
func (p *FramePool) Clone(f *Frame) *Frame {
	g := p.Get(len(f.Data))
	copy(g.Data, f.Data)
	g.Meta = f.Meta
	return g
}

// ShareClone returns a frame sharing f's Data with no byte copy — the
// zero-copy multicast primitive. Both f and the clone become sharers of
// the buffer (refcounted; Put recycles the bytes only when the last
// sharer is Put); each has its own independent Meta. The caller
// guarantees the bytes are frozen from this point on — in the datapath
// that is every frame past the output-queue stage, where all rewriting
// has already happened. A nil pool degrades to a deep Clone.
func (p *FramePool) ShareClone(f *Frame) *Frame {
	if p == nil {
		return f.Clone()
	}
	r := f.ref
	if r == nil {
		if n := len(p.shares); n > 0 {
			r = p.shares[n-1]
			p.shares = p.shares[:n-1]
		} else {
			r = &frameShare{}
		}
		r.n = 1
		f.ref = r
	}
	r.n++
	var g *Frame
	if n := len(p.shells); n > 0 {
		g = p.shells[n-1]
		p.shells[n-1] = nil
		p.shells = p.shells[:n-1]
	} else {
		g = &Frame{}
	}
	g.Data = f.Data
	g.Meta = f.Meta
	g.ref = r
	g.free = false
	return g
}

// Shared reports whether the frame's Data is currently shared with at
// least one other frame (diagnostic; used by tests).
func (f *Frame) Shared() bool { return f.ref != nil && f.ref.n > 1 }

// Beat is one bus-width transfer of a frame: the half-open byte window
// [Off, End) of Frame.Data. Last marks the final beat (TLAST).
type Beat struct {
	Frame *Frame
	Off   int
	End   int
	Last  bool
}

// First reports whether this is the frame's first beat, where metadata and
// headers are inspected.
func (b Beat) First() bool { return b.Off == 0 }

// Arena holds copies of frame bytes that outlive their frames, so a
// receiver that hands bytes to a caller (a tap's captures, the host
// driver's receive queue) can return the frame to its pool at once.
// Copies go into chunks that are never reused: a full chunk is dropped
// and stays alive exactly as long as some copy still references it.
// Chunks double from arenaMin to arenaMax bytes, so a short run that
// copies a few frames does not pay for a chunk sized for a long one.
type Arena struct{ chunk []byte }

const (
	arenaMin = 2 << 10
	arenaMax = 64 << 10
)

// Copy returns a copy of b that stays valid for as long as it is held.
// Its capacity ends at its last byte, so appending to it reallocates
// instead of overwriting the next copy.
func (a *Arena) Copy(b []byte) []byte {
	if len(a.chunk)+len(b) > cap(a.chunk) {
		a.chunk = make([]byte, 0, max(len(b), arenaMin, min(2*cap(a.chunk), arenaMax)))
	}
	a.chunk = append(a.chunk, b...)
	return a.chunk[len(a.chunk)-len(b) : len(a.chunk) : len(a.chunk)]
}
