package hw

import (
	"fmt"
	"slices"
	"sort"
)

// The register model is the software analogue of NetFPGA's AXI4-Lite
// control plane: every module exposes a RegisterFile of 32-bit registers,
// register files are mounted at offsets in a device-level AddressMap, and
// the host driver performs all control-plane interaction through 32-bit
// reads and writes — exactly the interface a kernel driver would have.

// Register access errors.
type RegError struct {
	Addr uint32
	Op   string // "read" or "write"
	Why  string
}

func (e *RegError) Error() string {
	return fmt.Sprintf("hw: register %s at 0x%08x: %s", e.Op, e.Addr, e.Why)
}

// reg is a single 32-bit register. Exactly one backing is set: a
// counter cell or getter (read-only, optionally one half of a 64-bit
// counter), a plain variable, or read/write callbacks.
type reg struct {
	// ctr.Name is the register's static name whatever the backing; the
	// full name ("_lo"/"_hi" appended for a counter half) is
	// materialised on demand.
	ctr  Counter
	off  uint32
	half uint8 // regWhole, regLo or regHi
	v    *uint32
	rd   func() uint32
	wr   func(uint32)
}

const (
	regWhole = iota
	regLo
	regHi
)

var regSuffix = [...]string{regWhole: "", regLo: "_lo", regHi: "_hi"}

func (r *reg) fullName() string { return r.ctr.Name + regSuffix[r.half] }

// named reports whether the register's full name is s+suffix, without
// building either.
func (r *reg) named(s, suffix string) bool {
	a1, a2, b1, b2 := r.ctr.Name, regSuffix[r.half], s, suffix
	if len(a1)+len(a2) != len(b1)+len(b2) {
		return false
	}
	if len(a1) > len(b1) {
		a1, a2, b1, b2 = b1, b2, a1, a2
	}
	// b1 = a1+x, so the names match iff a2 = x+b2.
	x := b1[len(a1):]
	return b1[:len(a1)] == a1 && a2[:len(x)] == x && a2[len(x):] == b2
}

func (r *reg) read() uint32 {
	switch {
	case r.v != nil:
		return *r.v
	case r.rd != nil:
		return r.rd()
	case r.half == regHi:
		return uint32(r.ctr.Value() >> 32)
	}
	return uint32(r.ctr.Value())
}

// RegisterFile is a block of 32-bit registers, word-addressed at 4-byte
// granularity relative to the block's base. Registers live in one slice
// sorted by offset; blocks are built in ascending order, so an add is an
// append, and a lookup is a binary search.
type RegisterFile struct {
	name string
	regs []reg
}

// NewRegisterFile returns an empty register file named name.
func NewRegisterFile(name string) *RegisterFile { return &RegisterFile{name: name} }

// Name returns the block name.
func (rf *RegisterFile) Name() string { return rf.name }

// Grow reserves room for n more registers, so a block that knows its
// size is built with one allocation.
func (rf *RegisterFile) Grow(n int) {
	rf.regs = slices.Grow(rf.regs, n)
}

// find returns the index of the register at offset, or where it would
// be inserted.
func (rf *RegisterFile) find(offset uint32) (int, bool) {
	i := sort.Search(len(rf.regs), func(i int) bool { return rf.regs[i].off >= offset })
	return i, i < len(rf.regs) && rf.regs[i].off == offset
}

func (rf *RegisterFile) add(r reg) {
	if r.off%4 != 0 {
		panic(fmt.Sprintf("hw: register %s.%s at unaligned offset 0x%x", rf.name, r.fullName(), r.off))
	}
	at, dup := rf.find(r.off)
	if dup {
		panic(fmt.Sprintf("hw: duplicate register offset 0x%x in %s", r.off, rf.name))
	}
	for i := range rf.regs {
		if rf.regs[i].named(r.ctr.Name, regSuffix[r.half]) {
			panic(fmt.Sprintf("hw: duplicate register name %s in %s", r.fullName(), rf.name))
		}
	}
	rf.regs = slices.Insert(rf.regs, at, r)
}

// AddRO adds a read-only register backed by rd. Writes are rejected.
func (rf *RegisterFile) AddRO(offset uint32, name string, rd func() uint32) {
	rf.add(reg{off: offset, ctr: Counter{Name: name}, rd: rd})
}

// AddRW adds a register with explicit read and write callbacks.
func (rf *RegisterFile) AddRW(offset uint32, name string, rd func() uint32, wr func(uint32)) {
	rf.add(reg{off: offset, ctr: Counter{Name: name}, rd: rd, wr: wr})
}

// AddVar adds a plain read/write register backed by *v.
func (rf *RegisterFile) AddVar(offset uint32, name string, v *uint32) {
	rf.add(reg{off: offset, ctr: Counter{Name: name}, v: v})
}

// AddCounter64 maps a 64-bit counter into two consecutive registers
// (low word at offset, high word at offset+4). The counter is read-only.
func (rf *RegisterFile) AddCounter64(offset uint32, name string, v *uint64) {
	rf.AddCounters(offset, Counter{Name: name, Ptr: v})
}

// AddCounters maps spine counters as consecutive 64-bit read-only
// counters (name_lo, name_hi) starting at offset, 8 bytes apart: a
// module's statistics block is a view of the list it registered
// (Counters.List), not a second listing.
func (rf *RegisterFile) AddCounters(offset uint32, cs ...Counter) {
	rf.Grow(2 * len(cs))
	for i, c := range cs {
		at := offset + uint32(i)*8
		rf.add(reg{off: at, half: regLo, ctr: c})
		rf.add(reg{off: at + 4, half: regHi, ctr: c})
	}
}

// AddCounter32 maps the low word of a spine counter as one read-only
// register named after it.
func (rf *RegisterFile) AddCounter32(offset uint32, c Counter) {
	rf.add(reg{off: offset, ctr: c})
}

// Read reads the register at the given word offset.
func (rf *RegisterFile) Read(offset uint32) (uint32, error) {
	i, ok := rf.find(offset)
	if !ok {
		return 0, &RegError{Addr: offset, Op: "read", Why: "unmapped in block " + rf.name}
	}
	return rf.regs[i].read(), nil
}

// Write writes the register at the given word offset.
func (rf *RegisterFile) Write(offset uint32, v uint32) error {
	i, ok := rf.find(offset)
	if !ok {
		return &RegError{Addr: offset, Op: "write", Why: "unmapped in block " + rf.name}
	}
	switch r := &rf.regs[i]; {
	case r.v != nil:
		*r.v = v
	case r.wr != nil:
		r.wr(v)
	default:
		return &RegError{Addr: offset, Op: "write", Why: "read-only register " + rf.name + "." + r.fullName()}
	}
	return nil
}

// Names returns the register names in offset order, for CLI listings.
func (rf *RegisterFile) Names() []string {
	names := make([]string, len(rf.regs))
	for i := range rf.regs {
		names[i] = rf.regs[i].fullName()
	}
	return names
}

// OffsetOf returns the word offset of a named register.
func (rf *RegisterFile) OffsetOf(name string) (uint32, bool) {
	for i := range rf.regs {
		if rf.regs[i].named(name, "") {
			return rf.regs[i].off, true
		}
	}
	return 0, false
}

// mount is one register file placed in an address map.
type mount struct {
	base uint32
	size uint32
	rf   *RegisterFile
}

// AddressMap composes register files into a single device address space,
// as the AXI interconnect does on the physical boards.
type AddressMap struct {
	mounts []mount
	// sealedMounts and sealedVars are what Seal recorded: the mount count
	// and every plain (AddVar) register's value, in address order.
	sealedMounts int
	sealedVars   []uint32
}

// Seal records the mounted blocks and the value of every plain register
// as the state Reset restores. Counter, getter and callback registers
// read their owners' state, which the owners reset.
func (am *AddressMap) Seal() {
	am.sealedMounts = len(am.mounts)
	am.sealedVars = am.sealedVars[:0]
	am.eachVar(func(v *uint32) { am.sealedVars = append(am.sealedVars, *v) })
}

// Reset writes every plain register back to its sealed value. It reports
// false, changing nothing, when blocks or plain registers were added
// since Seal.
func (am *AddressMap) Reset() bool {
	n := 0
	am.eachVar(func(*uint32) { n++ })
	if len(am.mounts) != am.sealedMounts || n != len(am.sealedVars) {
		return false
	}
	i := 0
	am.eachVar(func(v *uint32) { *v = am.sealedVars[i]; i++ })
	return true
}

func (am *AddressMap) eachVar(fn func(*uint32)) {
	for _, m := range am.mounts {
		for i := range m.rf.regs {
			if v := m.rf.regs[i].v; v != nil {
				fn(v)
			}
		}
	}
}

// NewAddressMap returns an empty address map.
func NewAddressMap() *AddressMap { return &AddressMap{} }

// Mount places rf at [base, base+size). Overlapping mounts panic: address
// map construction is a design-time activity where a conflict is a bug.
func (am *AddressMap) Mount(base, size uint32, rf *RegisterFile) {
	if base%4 != 0 || size%4 != 0 {
		panic("hw: unaligned register mount")
	}
	for _, m := range am.mounts {
		if base < m.base+m.size && m.base < base+size {
			panic(fmt.Sprintf("hw: register mount %s [0x%x,0x%x) overlaps %s [0x%x,0x%x)",
				rf.name, base, base+size, m.rf.name, m.base, m.base+m.size))
		}
	}
	at := sort.Search(len(am.mounts), func(i int) bool { return am.mounts[i].base > base })
	am.mounts = slices.Insert(am.mounts, at, mount{base: base, size: size, rf: rf})
}

func (am *AddressMap) find(addr uint32) (*RegisterFile, uint32, bool) {
	for _, m := range am.mounts {
		if addr >= m.base && addr < m.base+m.size {
			return m.rf, addr - m.base, true
		}
	}
	return nil, 0, false
}

// Read performs a 32-bit read at a device-absolute address.
func (am *AddressMap) Read(addr uint32) (uint32, error) {
	rf, off, ok := am.find(addr)
	if !ok {
		return 0, &RegError{Addr: addr, Op: "read", Why: "no block mounted"}
	}
	v, err := rf.Read(off)
	if err != nil {
		if re, isRE := err.(*RegError); isRE {
			re.Addr = addr // report absolute address
		}
		return 0, err
	}
	return v, nil
}

// Write performs a 32-bit write at a device-absolute address.
func (am *AddressMap) Write(addr uint32, v uint32) error {
	rf, off, ok := am.find(addr)
	if !ok {
		return &RegError{Addr: addr, Op: "write", Why: "no block mounted"}
	}
	err := rf.Write(off, v)
	if re, isRE := err.(*RegError); isRE {
		re.Addr = addr
	}
	return err
}

// Blocks returns the mounted register files and their bases in address
// order.
func (am *AddressMap) Blocks() []struct {
	Base uint32
	RF   *RegisterFile
} {
	out := make([]struct {
		Base uint32
		RF   *RegisterFile
	}, len(am.mounts))
	for i, m := range am.mounts {
		out[i].Base = m.base
		out[i].RF = m.rf
	}
	return out
}

// Lookup resolves "block.register" to an absolute address, for CLI use.
func (am *AddressMap) Lookup(block, regName string) (uint32, bool) {
	for _, m := range am.mounts {
		if m.rf.name == block {
			off, ok := m.rf.OffsetOf(regName)
			if !ok {
				return 0, false
			}
			return m.base + off, true
		}
	}
	return 0, false
}
