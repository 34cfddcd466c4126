package switchp

import (
	"repro/netfpga/hw"
	"repro/netfpga/lib"
	"repro/netfpga/pkt"
)

// camEntry is one learned address.
type camEntry struct {
	port     uint8
	lastSeen int64 // opaque timestamp (picoseconds in sim, 0 if unaged)
}

// CAM is the learning table of the reference switch — a bounded
// MAC→port map with optional aging, read and written by the switch's
// decision stage (in the sim and in its twin alike). Entries live in
// an open-addressing arena (lib.FlowTable) so the table holds
// million-flow working sets with allocation-free, cache-local lookups.
// The arena starts small and doubles as addresses are learned; capacity
// is a bound Learn enforces, not memory reserved up front, so building a
// switch costs a few kilobytes whatever its table size. Nothing but
// Sweep's DeleteIf ever iterates the table, so slot order — the one
// thing growth history changes — is unobservable.
type CAM struct {
	entries  *lib.FlowTable[pkt.MAC, camEntry]
	capacity int
	ageAfter int64 // 0 disables aging

	lookups, hits, misses  uint64
	learns, evicts, ageOut uint64
	ctrs                   hw.Counters
}

// camStartEntries sizes a new CAM's arena (64 slots, 2 KB).
const camStartEntries = 48

// NewCAM builds a table bounded to capacity entries. ageAfter (in the
// same unit as the now argument of Lookup/Learn) expires idle entries;
// 0 disables aging.
func NewCAM(capacity int, ageAfter int64) *CAM {
	if capacity <= 0 {
		capacity = 16384
	}
	return &CAM{
		entries:  lib.NewFlowTable[pkt.MAC, camEntry](lib.HashMAC, min(capacity, camStartEntries)),
		capacity: capacity,
		ageAfter: ageAfter,
	}
}

// Learn records src on port. Re-learning refreshes the timestamp and
// follows moves. A full table evicts nothing (new addresses are simply
// not learned), matching the reference design's behaviour.
func (c *CAM) Learn(src pkt.MAC, port uint8, now int64) {
	if src.IsMulticast() || src.IsZero() {
		return
	}
	if _, ok := c.entries.Get(src); ok {
		c.entries.Put(src, camEntry{port: port, lastSeen: now})
		return
	}
	if c.entries.Len() >= c.capacity {
		c.evicts++ // counted as a failed learn
		return
	}
	c.entries.Put(src, camEntry{port: port, lastSeen: now})
	c.learns++
}

// Lookup resolves dst to a port. Expired entries miss (and are removed).
func (c *CAM) Lookup(dst pkt.MAC, now int64) (uint8, bool) {
	c.lookups++
	e, ok := c.entries.Get(dst)
	if !ok {
		c.misses++
		return 0, false
	}
	if c.ageAfter > 0 && now-e.lastSeen > c.ageAfter {
		c.entries.Delete(dst)
		c.ageOut++
		c.misses++
		return 0, false
	}
	c.hits++
	return e.port, true
}

// Sweep removes all entries idle longer than the age limit; the switch
// agent calls it periodically.
func (c *CAM) Sweep(now int64) int {
	if c.ageAfter == 0 {
		return 0
	}
	removed := c.entries.DeleteIf(func(_ pkt.MAC, e camEntry) bool {
		return now-e.lastSeen > c.ageAfter
	})
	c.ageOut += uint64(removed)
	return removed
}

// Len returns the number of live entries.
func (c *CAM) Len() int { return c.entries.Len() }

// Reset forgets every learned address and zeroes the counters. The arena
// keeps the size it grew to: slot order is unobservable (see CAM).
func (c *CAM) Reset() {
	c.entries.Clear()
	c.lookups, c.hits, c.misses = 0, 0, 0
	c.learns, c.evicts, c.ageOut = 0, 0, 0
}

// Counters implements hw.CounterSource. The table is not a module, so
// the list is built on first use rather than per switch.
func (c *CAM) Counters() *hw.Counters {
	if c.ctrs.Len() == 0 {
		c.ctrs.Add("lookups", &c.lookups)
		c.ctrs.Add("hits", &c.hits)
		c.ctrs.Add("misses", &c.misses)
		c.ctrs.Add("learns", &c.learns)
		c.ctrs.Add("failed_learns", &c.evicts)
		c.ctrs.Add("aged_out", &c.ageOut)
		c.ctrs.AddFunc("entries", func() uint64 { return uint64(c.entries.Len()) })
	}
	return &c.ctrs
}
