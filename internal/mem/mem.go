// Package mem models the NetFPGA boards' off-chip memory subsystems: the
// QDRII+ SRAMs (flow tables, counters) and the DDR3 SoDIMMs (packet
// buffers, soft-core RAM) described in the SUME paper. The models are
// timing-first: they reproduce the bandwidth/latency envelope — fixed
// pipelined latency and dual independent ports for QDR, bank/row dynamics
// and refresh for DDR3 — over a sparse backing store, so multi-gigabyte
// parts cost only what is touched.
package mem

import (
	"fmt"

	"repro/internal/sim"
)

// Memory is the interface both models implement. Operations complete
// asynchronously in simulated time; callbacks run when the data is valid.
type Memory interface {
	// Name identifies the device instance.
	Name() string
	// Size returns the capacity in bytes.
	Size() uint64
	// Read fetches n bytes at addr; cb receives the data when the
	// device returns it. The returned slice is owned by the callee only
	// for the duration of the callback.
	Read(addr uint64, n int, cb func([]byte))
	// Write stores data at addr; cb (optional) runs at write completion.
	Write(addr uint64, data []byte, cb func())
}

// readReq and writeReq are the per-access state a memory's completion
// lanes carry by value from issue to completion.
type readReq struct {
	addr uint64
	n    int
	cb   func([]byte)
}

type writeReq struct {
	addr uint64
	data []byte // the device's private copy
	cb   func()
}

// ports is the completion side both models share: one ordered lane per
// access kind (each kind completes in issue order on either device) over
// the sparse store, and the one read buffer the Read contract allows —
// the slice is the callback's only until it returns. It is built on the
// first access, so a board's untouched memories cost a device nothing.
type ports struct {
	sim       *sim.Sim
	data      *store
	readLane  *sim.Lane[readReq]
	writeLane *sim.Lane[writeReq]
	rbuf      []byte
}

func (p *ports) init() {
	if p.data != nil {
		return
	}
	p.data = newStore()
	p.readLane = sim.NewLane(p.sim, p.readDone)
	p.writeLane = sim.NewLane(p.sim, p.writeDone)
}

// reset forgets every stored byte; the lanes are the simulator's to
// empty (sim.Sim.Reset).
func (p *ports) reset() {
	if p.data != nil {
		clear(p.data.pages)
	}
}

func (p *ports) postRead(at sim.Time, addr uint64, n int, cb func([]byte)) {
	p.init()
	p.readLane.Post(at, readReq{addr, n, cb})
}

func (p *ports) postWrite(at sim.Time, addr uint64, data []byte, cb func()) {
	p.init()
	// The device keeps a private copy until the write lands; the caller
	// may reuse its buffer at once.
	p.writeLane.Post(at, writeReq{addr, append([]byte(nil), data...), cb})
}

func (p *ports) readDone(r readReq) {
	if cap(p.rbuf) < r.n {
		p.rbuf = make([]byte, r.n)
	}
	buf := p.rbuf[:r.n]
	p.data.read(r.addr, buf)
	r.cb(buf)
}

func (p *ports) writeDone(w writeReq) {
	p.data.write(w.addr, w.data)
	if w.cb != nil {
		w.cb()
	}
}

const pageSize = 4096

// store is a sparse page-granular backing store.
type store struct {
	pages map[uint64]*[pageSize]byte
}

func newStore() *store { return &store{pages: make(map[uint64]*[pageSize]byte)} }

func (s *store) page(n uint64, create bool) *[pageSize]byte {
	p := s.pages[n]
	if p == nil && create {
		p = new([pageSize]byte)
		s.pages[n] = p
	}
	return p
}

func (s *store) read(addr uint64, buf []byte) {
	for len(buf) > 0 {
		pn, off := addr/pageSize, addr%pageSize
		n := pageSize - off
		if uint64(len(buf)) < n {
			n = uint64(len(buf))
		}
		if p := s.page(pn, false); p != nil {
			copy(buf[:n], p[off:off+n])
		} else {
			for i := uint64(0); i < n; i++ {
				buf[i] = 0
			}
		}
		buf = buf[n:]
		addr += n
	}
}

func (s *store) write(addr uint64, data []byte) {
	for len(data) > 0 {
		pn, off := addr/pageSize, addr%pageSize
		n := pageSize - off
		if uint64(len(data)) < n {
			n = uint64(len(data))
		}
		copy(s.page(pn, true)[off:off+n], data[:n])
		data = data[n:]
		addr += n
	}
}

func checkRange(name string, addr uint64, n int, size uint64) {
	if n < 0 || addr+uint64(n) > size || addr+uint64(n) < addr {
		panic(fmt.Sprintf("mem: %s access [0x%x, +%d) out of range (size 0x%x)", name, addr, n, size))
	}
}
