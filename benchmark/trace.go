package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/netfpga"
	"repro/netfpga/fleet"
	"repro/netfpga/sweep"
)

// sampleStride is the fixed stride per-frame call sites are timed on:
// every call is counted, one in sampleStride is timed.
const sampleStride = 64

// span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the tracer started; parent is the index of the span
// that caused it (-1 for a rep).
type span struct {
	name       string
	start, end int64
	parent     int32
	rep        int32
}

// total is what a call site accumulated: every call counted, the timed
// ones summed with the timer's own cost removed.
type total struct {
	calls, timed uint64
	ns           int64
}

// perCall is the site's mean time per call in ns (0 before the first
// timed call).
func (t total) perCall() float64 {
	if t.timed == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.timed)
}

// sum is the site's time scaled from the timed calls to all calls.
func (t total) sum() float64 { return t.perCall() * float64(t.calls) }

// devCounts are the public counters the Measure wrapper reads off a
// cell's device after its measure returned.
type devCounts struct {
	measureNS   int64
	clockTicks  uint64
	clockCycles uint64
	moduleTicks uint64
	beats       uint64
	queueDrops  uint64
	macTxFrames uint64
	dmaFrames   uint64
	bySpec      map[string]int64 // measure ns per spec name ("T4/mesh", "matrix")
}

// tracer records spans around the benchmark's own calls into each layer
// and the counters read at the same boundaries. A nil *tracer is the
// untraced run: every method is a no-op, so the timed reps carry
// nothing but nil checks.
type tracer struct {
	t0      time.Time
	timerNS int64 // cost of one time.Now/time.Since pair, removed from every sample

	mu     sync.Mutex
	keep   bool // record spans (first traced rep); totals are always kept
	rep    int32
	repID  int32
	spans  []span
	totals map[string]total
	open   map[*fleet.Ctx]int32 // running cell span per job context
	counts devCounts
	// gauges are values a pass reports as they stand (the last pass
	// wins); set-up gauges such as sweep.plan_us outlive the reps.
	gauges map[string]float64
}

// gauge records a value by its per-layer metric name.
func (t *tracer) gauge(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gauges[name] = v
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), totals: map[string]total{}, open: map[*fleet.Ctx]int32{},
		gauges: map[string]float64{}, repID: -1}
	// Calibrate the timer against itself: the median back-to-back pair
	// is what every sampled span carries on top of the call it times.
	pairs := make([]int64, 2001)
	for i := range pairs {
		s := time.Now()
		pairs[i] = int64(time.Since(s))
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
	t.timerNS = pairs[len(pairs)/2]
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginRep opens rep n's span and resets the per-rep accumulators;
// spans are recorded only when keep is set, totals always.
func (t *tracer) beginRep(n int, keep bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rep, t.keep = int32(n), keep
	t.totals = map[string]total{}
	t.counts = devCounts{bySpec: map[string]int64{}}
	t.repID = t.appendLocked(span{name: fmt.Sprintf("rep %d", n), start: t.now(), parent: -1})
}

// endRep closes the rep span and returns what the rep accumulated.
func (t *tracer) endRep() (map[string]total, devCounts) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeLocked(t.repID)
	t.repID, t.keep = -1, false
	return t.totals, t.counts
}

func (t *tracer) appendLocked(s span) int32 {
	if !t.keep {
		return -1
	}
	s.rep = t.rep
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

func (t *tracer) closeLocked(id int32) {
	if id >= 0 {
		t.spans[id].end = t.now()
	}
}

// wrap returns the groups with every Measure wrapped in a cell span
// that also reads the device's public counters once the measure is
// done. This is how layers inside shipped measures are reached from
// outside.
func (t *tracer) wrap(groups []sweep.Group) []sweep.Group {
	if t == nil {
		return groups
	}
	out := make([]sweep.Group, len(groups))
	for i, g := range groups {
		m := g.Measure
		g.Measure = func(c *fleet.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
			t.mu.Lock()
			id := t.appendLocked(span{name: "cell " + cell.Key, start: t.now(), parent: t.repID})
			t.open[c] = id
			t.mu.Unlock()
			s := time.Now()
			o, err := m(c, cell)
			ns := int64(time.Since(s))
			n := readDevice(c.Dev) // outside the lock: it builds the layers' Stats maps
			t.mu.Lock()
			defer t.mu.Unlock()
			t.closeLocked(id)
			delete(t.open, c)
			t.counts.add(n, cell.Spec.Name, ns)
			return o, err
		}
		out[i] = g
	}
	return out
}

// readDevice reads the public counters of a cell's device (nil for a
// cell without one).
func readDevice(dev *netfpga.Device) devCounts {
	var n devCounts
	if dev == nil {
		return n
	}
	n.clockTicks = dev.Clock.Ticks()
	n.clockCycles = dev.Clock.Cycle()
	for _, v := range dev.Dsn.ModuleTicks() {
		n.moduleTicks += v
	}
	for _, s := range dev.Dsn.Streams() {
		n.beats += s.Pushed()
	}
	n.queueDrops = sweep.QueueDrops(dev)
	for _, m := range dev.MACs {
		n.macTxFrames += m.Stats()["tx_frames"]
	}
	if dev.Engine != nil {
		st := dev.Engine.Stats()
		n.dmaFrames = st["tx_frames"] + st["rx_frames"]
	}
	return n
}

// add folds one cell's counters and Measure time into the rep's.
func (n *devCounts) add(c devCounts, spec string, ns int64) {
	n.measureNS += ns
	n.bySpec[spec] += ns
	n.clockTicks += c.clockTicks
	n.clockCycles += c.clockCycles
	n.moduleTicks += c.moduleTicks
	n.beats += c.beats
	n.queueDrops += c.queueDrops
	n.macTxFrames += c.macTxFrames
	n.dmaFrames += c.dmaFrames
}

// site is one call site inside a benchmark-owned driver. It belongs to
// the goroutine driving the cell, so counting a call takes no lock.
type site struct {
	t      *tracer
	name   string
	stride uint64
	parent int32
	total
}

// site opens a call site under c's running cell span: stride 1 times
// every call, sampleStride one in 64. A nil tracer gives a nil site,
// whose methods do nothing.
func (t *tracer) site(c *fleet.Ctx, name string, stride uint64) *site {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, ok := t.open[c]
	if !ok {
		parent = t.repID
	}
	return &site{t: t, name: name, stride: stride, parent: parent}
}

// start counts a call and, when it is one the site times, returns its
// start time for stop; 0 means the call is not timed.
func (s *site) start() int64 {
	if s == nil {
		return 0
	}
	s.calls++
	if s.calls%s.stride != 0 {
		return 0
	}
	return s.t.now()
}

// stop ends the call start began.
func (s *site) stop(start int64) {
	if start == 0 {
		return
	}
	end := s.t.now()
	s.timed++
	if ns := end - start; ns > s.t.timerNS {
		s.ns += ns - s.t.timerNS
	}
	if s.t.keep {
		s.t.mu.Lock()
		s.t.appendLocked(span{name: s.name, start: start, end: end, parent: s.parent})
		s.t.mu.Unlock()
	}
}

// close folds the site into the rep's totals.
func (s *site) close() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	tot := s.t.totals[s.name]
	tot.calls += s.calls
	tot.timed += s.timed
	tot.ns += s.ns
	s.t.totals[s.name] = tot
}

// writeChrome writes the recorded spans as Chrome-trace JSON (open it
// at chrome://tracing or ui.perfetto.dev). Concurrent cells get lanes
// of their own; a span nests in its parent's lane when it fits there.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return t.spans[order[a]].start < t.spans[order[b]].start })
	lane := make([]int, len(t.spans))
	var stacks [][]int64 // per lane: end times of the spans open in it
	fits := func(l int, s span) bool {
		st := stacks[l]
		for len(st) > 0 && st[len(st)-1] <= s.start {
			st = st[:len(st)-1]
		}
		stacks[l] = st
		return len(st) == 0 || st[len(st)-1] >= s.end
	}
	for _, i := range order {
		s := t.spans[i]
		want := 0
		if s.parent >= 0 {
			want = lane[s.parent]
		}
		l := -1
		if want < len(stacks) && fits(want, s) {
			l = want
		}
		for k := 0; l < 0 && k < len(stacks); k++ {
			if fits(k, s) {
				l = k
			}
		}
		if l < 0 {
			stacks = append(stacks, nil)
			l = len(stacks) - 1
		}
		stacks[l] = append(stacks[l], s.end)
		lane[i] = l
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for n, i := range order {
		s := t.spans[i]
		name, _ := json.Marshal(s.name)
		if n > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n"+`{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"rep":%d}}`,
			name, lane[i], float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.rep)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
