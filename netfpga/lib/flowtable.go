package lib

import (
	"encoding/binary"

	"repro/netfpga/pkt"
)

// FlowTable is an open-addressing hash table tuned for flow-state at
// scale: switch CAMs, ARP caches, per-flow counters with 10^6+ live
// entries. Entries live in one contiguous arena (a single slice of
// key/value slots), probed linearly with robin-hood displacement and
// backward-shift deletion, so steady-state Get/Put/Delete allocate
// nothing and lookups touch a handful of adjacent cache lines instead
// of chasing bucket pointers the way the built-in map does.
//
// The hash function is caller-supplied (see HashMAC, HashIP4) so key
// types stay plain comparable values with no interface boxing. The
// table is not safe for concurrent mutation; like the hardware tables
// it models, it belongs to a single pipeline.
type FlowTable[K comparable, V any] struct {
	hash  func(K) uint64
	slots []flowSlot[K, V]
	mask  uint64
	n     int
}

// flowSlot is one arena cell. dist is the probe distance + 1, so the
// zero value marks an empty slot; a slot at its home position has
// dist 1.
type flowSlot[K comparable, V any] struct {
	key  K
	val  V
	dist uint8
}

// maxProbe bounds the probe distance a slot can record; insert refuses
// longer sequences, forcing a grow. A robin-hood table at the growth
// threshold keeps probes far shorter, so the bound exists only to make
// worst-case clustering terminate, not as a working limit.
const maxProbe = 0xFF

// NewFlowTable builds a table using hash for key placement, pre-sized
// so that capacity entries fit without growing. The hash must be fixed
// for the table's lifetime and should mix well (use HashMAC / HashIP4
// for packet address keys).
func NewFlowTable[K comparable, V any](hash func(K) uint64, capacity int) *FlowTable[K, V] {
	size := 8
	for size*3/4 < capacity {
		size <<= 1
	}
	return &FlowTable[K, V]{
		hash:  hash,
		slots: make([]flowSlot[K, V], size),
		mask:  uint64(size - 1),
	}
}

// Len reports the number of live entries.
func (t *FlowTable[K, V]) Len() int { return t.n }

// Cap reports how many entries fit before the next grow.
func (t *FlowTable[K, V]) Cap() int { return len(t.slots) * 3 / 4 }

// Clear removes every entry. The arena keeps the size it grew to.
func (t *FlowTable[K, V]) Clear() {
	clear(t.slots)
	t.n = 0
}

// Get returns the value stored for key.
func (t *FlowTable[K, V]) Get(key K) (V, bool) {
	idx := t.hash(key) & t.mask
	for d := 1; ; d++ {
		s := &t.slots[idx]
		if int(s.dist) < d {
			// An entry this far from home would have displaced s
			// (robin-hood invariant): key is absent.
			var zero V
			return zero, false
		}
		if int(s.dist) == d && s.key == key {
			return s.val, true
		}
		idx = (idx + 1) & t.mask
	}
}

// Put inserts or replaces the value for key.
func (t *FlowTable[K, V]) Put(key K, val V) {
	if t.n >= t.Cap() {
		t.grow()
	}
	for {
		k, v, ok := t.insert(key, val)
		if ok {
			return
		}
		// A probe sequence overflowed maxProbe (pathological
		// clustering): grow and retry with the entry still in hand.
		// After displacement swaps that entry is NOT the original
		// argument — the original already took a slot and we carry the
		// resident it evicted, which would be silently lost if the
		// retry re-inserted the argument instead.
		t.grow()
		key, val = k, v
	}
}

// insert places key/val, displacing richer entries robin-hood style.
// On success ok is true. If a probe distance would overflow a slot it
// returns ok false along with the entry left in hand, which after
// swaps may be a displaced resident rather than the argument; the
// caller must grow and re-insert that returned pair.
func (t *FlowTable[K, V]) insert(key K, val V) (K, V, bool) {
	idx := t.hash(key) & t.mask
	for d := 1; ; d++ {
		if d >= maxProbe {
			return key, val, false
		}
		s := &t.slots[idx]
		if s.dist == 0 {
			s.key, s.val, s.dist = key, val, uint8(d)
			t.n++
			return key, val, true
		}
		if int(s.dist) == d && s.key == key {
			s.val = val
			return key, val, true
		}
		if int(s.dist) < d {
			// The resident is closer to home than we are: take the
			// slot and keep walking with the displaced entry.
			key, s.key = s.key, key
			val, s.val = s.val, val
			d, s.dist = int(s.dist), uint8(d)
		}
		idx = (idx + 1) & t.mask
	}
}

// Delete removes key and reports whether it was present. The probe
// cluster behind the hole shifts back one slot (backward-shift
// deletion), so the table never accumulates tombstones.
func (t *FlowTable[K, V]) Delete(key K) bool {
	idx := t.hash(key) & t.mask
	for d := 1; ; d++ {
		s := &t.slots[idx]
		if int(s.dist) < d {
			return false
		}
		if int(s.dist) == d && s.key == key {
			break
		}
		idx = (idx + 1) & t.mask
	}
	// Backward shift: pull each successor one slot toward its home
	// until a hole or a home-positioned entry ends the cluster.
	for {
		next := (idx + 1) & t.mask
		ns := &t.slots[next]
		if ns.dist <= 1 {
			break
		}
		s := &t.slots[idx]
		s.key, s.val, s.dist = ns.key, ns.val, ns.dist-1
		idx = next
	}
	var zero flowSlot[K, V]
	t.slots[idx] = zero
	t.n--
	return true
}

// Range calls fn for each entry in arena order (deterministic for a
// given insertion history, unlike the built-in map) and stops early if
// fn returns false. The table must not be mutated during iteration.
func (t *FlowTable[K, V]) Range(fn func(K, V) bool) {
	for i := range t.slots {
		if t.slots[i].dist != 0 {
			if !fn(t.slots[i].key, t.slots[i].val) {
				return
			}
		}
	}
}

// DeleteIf removes every entry for which fn reports true and returns
// how many were removed. fn must not mutate the table; deletions are
// applied after the scan so backward shifts cannot disturb it.
func (t *FlowTable[K, V]) DeleteIf(fn func(K, V) bool) int {
	var doomed []K
	for i := range t.slots {
		if t.slots[i].dist != 0 && fn(t.slots[i].key, t.slots[i].val) {
			doomed = append(doomed, t.slots[i].key)
		}
	}
	for _, k := range doomed {
		t.Delete(k)
	}
	return len(doomed)
}

// grow doubles the arena and reinserts every entry.
func (t *FlowTable[K, V]) grow() {
	old := t.slots
	t.slots = make([]flowSlot[K, V], len(old)*2)
	t.mask = uint64(len(t.slots) - 1)
	t.n = 0
	for i := range old {
		if old[i].dist != 0 {
			key, val := old[i].key, old[i].val
			for {
				k, v, ok := t.insert(key, val)
				if ok {
					break
				}
				// Same carry rule as Put: continue with the displaced
				// entry, not the one we started reinserting.
				t.grow()
				key, val = k, v
			}
		}
	}
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection that
// turns structured address bits (vendor prefixes, subnet runs) into
// uniform slot indices.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashMAC hashes an Ethernet address for FlowTable use.
func HashMAC(m pkt.MAC) uint64 {
	return mix64(uint64(binary.BigEndian.Uint32(m[0:4]))<<16 |
		uint64(binary.BigEndian.Uint16(m[4:6])))
}

// HashIP4 hashes an IPv4 address for FlowTable use.
func HashIP4(ip pkt.IP4) uint64 {
	return mix64(uint64(binary.BigEndian.Uint32(ip[:])))
}
