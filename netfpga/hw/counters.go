package hw

import (
	"fmt"
	"slices"
)

// The counter spine is the software analogue of how NetFPGA designs
// expose statistics over AXI4-Lite: every block lists its counters once,
// when it is built, and everything that reports them — Design.Stats,
// the device snapshot, the sweep's queue-drop sum, the block's register
// file — is a view of that one list. A read touches no per-module map
// and formats no key: names are static strings (literals or NameTable
// entries), values are read through a pointer or a getter.

// CounterKind classifies a counter for aggregate views. The kind is
// declared where the counter is registered; no view ever infers it
// from the counter's name.
type CounterKind uint8

// Counter kinds.
const (
	// Count is a plain event, byte or gauge counter.
	Count CounterKind = iota
	// QueueDrop counts frames tail-dropped by a full queue — the loss
	// the sweeps report against offered load (Design.Sum(QueueDrop)).
	// Policy drops (lookup verdicts, bad FCS) are Count.
	QueueDrop
)

// Counter is one exported statistic: a static name and where to read
// the value, either the counter cell itself or a getter for derived
// values (a queue depth, a table's entry count).
type Counter struct {
	Name string
	Ptr  *uint64
	Get  func() uint64
	Kind CounterKind
}

// Value reads the counter.
func (c *Counter) Value() uint64 {
	if c.Ptr != nil {
		return *c.Ptr
	}
	return c.Get()
}

// Counters is a block's counter list, in registration order. Besides
// its own counters a list can include other lists under a static name
// prefix (a MAC attach includes its MAC's as "mac_*"), optionally gated
// on a cell so an idle sub-block exports nothing.
type Counters struct {
	list []Counter
	subs []subCounters
}

type subCounters struct {
	prefix string
	src    *Counters
	gate   *uint64 // nil, or the group is exported only while *gate != 0
}

// CounterSource is implemented by modules (and any other block) that
// export counters through the spine. The list is built once, at
// construction; Counters returns that same list on every call.
type CounterSource interface {
	Counters() *Counters
}

// Add registers a Count counter read through p.
func (cs *Counters) Add(name string, p *uint64) {
	cs.list = append(cs.list, Counter{Name: name, Ptr: p})
}

// AddFunc registers a Count counter read through get.
func (cs *Counters) AddFunc(name string, get func() uint64) {
	cs.list = append(cs.list, Counter{Name: name, Get: get})
}

// AddCounter registers a fully specified counter (FrameQueue.DropCounter
// and friends build these).
func (cs *Counters) AddCounter(c Counter) { cs.list = append(cs.list, c) }

// Grow reserves room for n more counters, so a constructor that knows
// its count registers them with one allocation.
func (cs *Counters) Grow(n int) {
	cs.list = slices.Grow(cs.list, n)
}

// Include exports src's own counters through cs as prefix+name. With a
// non-nil gate the group is exported only while *gate != 0. Lists nest
// one level: src's own includes are not followed, which is what keeps a
// key a single concatenation.
func (cs *Counters) Include(prefix string, src *Counters, gate *uint64) {
	cs.subs = append(cs.subs, subCounters{prefix: prefix, src: src, gate: gate})
}

// List returns the block's own counters in registration order, for
// register-file views (RegisterFile.AddCounters).
func (cs *Counters) List() []Counter { return cs.list }

// Len returns the number of counters a view of cs can export.
func (cs *Counters) Len() int {
	n := len(cs.list)
	for i := range cs.subs {
		n += len(cs.subs[i].src.list)
	}
	return n
}

// AddTo writes every counter into dst under prefix+name.
func (cs *Counters) AddTo(dst map[string]uint64, prefix string) { cs.addTo(dst, prefix, "", "") }

// addTo is the one place snapshot keys are built: a+b+c+name, a single
// concatenation per counter whatever the nesting.
func (cs *Counters) addTo(dst map[string]uint64, a, b, c string) {
	for i := range cs.list {
		ct := &cs.list[i]
		dst[a+b+c+ct.Name] = ct.Value()
	}
	for i := range cs.subs {
		s := &cs.subs[i]
		if s.gate != nil && *s.gate == 0 {
			continue
		}
		for j := range s.src.list {
			ct := &s.src.list[j]
			dst[a+b+c+s.prefix+ct.Name] = ct.Value()
		}
	}
}

// Map returns the counters as a fresh name -> value map: the one helper
// every map-returning Stats method is derived with.
func (cs *Counters) Map() map[string]uint64 {
	out := make(map[string]uint64, cs.Len())
	cs.AddTo(out, "")
	return out
}

// Sum adds up the block's own counters of the given kind. Included
// lists are not followed: an included block's losses belong to the view
// that owns that block.
func (cs *Counters) Sum(kind CounterKind) uint64 {
	var total uint64
	for i := range cs.list {
		if cs.list[i].Kind == kind {
			total += cs.list[i].Value()
		}
	}
	return total
}

// NameTable is a package-level table of indexed counter names
// ("port%d_pkts"), formatted once at init so per-port counters register
// with static strings.
type NameTable struct {
	format string
	names  []string
}

// NewNameTable formats names 0..n-1. format takes one %d.
func NewNameTable(format string, n int) *NameTable {
	t := &NameTable{format: format, names: make([]string, n)}
	for i := range t.names {
		t.names[i] = fmt.Sprintf(format, i)
	}
	return t
}

// At returns the name for index i (formatted on the spot past the
// table's end).
func (t *NameTable) At(i int) string {
	if i >= 0 && i < len(t.names) {
		return t.names[i]
	}
	return fmt.Sprintf(t.format, i)
}
