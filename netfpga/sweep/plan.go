package sweep

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/netfpga"
)

// ErrDiverged marks two completions of the same cell whose digests
// disagree — a determinism violation, distinct from every recoverable
// merge failure (a corrupt record, a duplicate, an unknown key). A
// distributed coordinator maps recoverable failures to
// requeue-and-retry but must abort on ErrDiverged: the fleet is
// producing different answers for the same cell.
var ErrDiverged = errors.New("sweep: determinism violation")

// Plan is a compiled sweep execution: every expanded cell paired with
// its measure, plus the base seed cell seeds derive from. A plan is the
// unit the execution paths share — execute it in-process on a
// Runner, or hand its cells out by canonical key across worker
// processes and merge the streamed records back (Merger). Because cell
// seeds derive from (BaseSeed, key) and never from batch position,
// every subset of a plan produces byte-identical per-cell digests.
type Plan struct {
	// Cells are the expanded scenarios in expansion order.
	Cells []Cell
	// BaseSeed is folded with each cell key to derive its seed.
	BaseSeed uint64

	measures []Measure // per cell
	groupIdx []int     // per cell: owning group index
	ngroups  int
	byKey    map[string]int // canonical key -> cell index (read-only after build)
	// devs is the plan's cache of idle built devices, which every
	// executed registry-resolved cell draws from (devices.go); a Subset
	// shares it.
	devs *devices
}

// index (re)builds the key lookup; called once at construction, so
// concurrent readers (RunCell from many worker goroutines) never see it
// mutate.
func (p *Plan) index() {
	p.byKey = make(map[string]int, len(p.Cells))
	for i, c := range p.Cells {
		p.byKey[c.Key] = i
	}
}

// Lookup returns the plan index of a canonical cell key.
func (p *Plan) Lookup(key string) (int, bool) {
	i, ok := p.byKey[key]
	return i, ok
}

// PlanGroups expands every group with the given filter into an
// executable plan.
func PlanGroups(groups []Group, filter string, baseSeed uint64) (*Plan, error) {
	cells, off, err := ExpandGroups(groups, filter)
	if err != nil {
		return nil, err
	}
	p := &Plan{Cells: cells, BaseSeed: baseSeed, ngroups: len(groups),
		measures: make([]Measure, len(cells)), groupIdx: make([]int, len(cells)), devs: &devices{}}
	for gi := range groups {
		for i := off[gi]; i < off[gi+1]; i++ {
			if groups[gi].Measure == nil {
				return nil, fmt.Errorf("sweep: group of cell %s has no measure", cells[i].Key)
			}
			p.measures[i] = groups[gi].Measure
			p.groupIdx[i] = gi
		}
	}
	p.index()
	return p, nil
}

// Keys returns the canonical cell keys in expansion order.
func (p *Plan) Keys() []string {
	keys := make([]string, len(p.Cells))
	for i, c := range p.Cells {
		keys[i] = c.Key
	}
	return keys
}

// groupOffsets derives Results group offsets from the per-cell group
// indices (cells are in expansion order, so group indices are
// nondecreasing).
func (p *Plan) groupOffsets() []int {
	off := make([]int, p.ngroups+1)
	for _, gi := range p.groupIdx {
		off[gi+1]++
	}
	for i := 1; i <= p.ngroups; i++ {
		off[i] += off[i-1]
	}
	return off
}

// fnv64 is the 64-bit FNV-1a of a key, the hash seed derivation
// (SeedForKey) folds.
func fnv64(key string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 0x100000001b3
	}
	return h
}

// Subset returns the sub-plan of the cells keep accepts, preserving
// expansion order and group structure — what a resumed in-process run
// executes when only part of a plan is still unfinished.
func (p *Plan) Subset(keep func(key string) bool) *Plan {
	sub := &Plan{BaseSeed: p.BaseSeed, ngroups: p.ngroups, devs: p.devs}
	for j, c := range p.Cells {
		if !keep(c.Key) {
			continue
		}
		sub.Cells = append(sub.Cells, c)
		sub.measures = append(sub.measures, p.measures[j])
		sub.groupIdx = append(sub.groupIdx, p.groupIdx[j])
	}
	sub.index()
	return sub
}

// Jobs returns the plan's cells and a nil error: a cell's board and
// project resolve when it runs, and one that does not is that cell's
// error. It remains only because benchmark/ still calls it; the change
// that next edits benchmark/ deletes it.
func (p *Plan) Jobs() ([]Cell, error) { return p.Cells, nil }

// CellRecord is the flat, serializable form of a CellResult — what
// crosses process boundaries in a fleet run and what the results store
// persists, in one field order on both. It carries everything the digest
// covers.
type CellRecord struct {
	Key    string             `json:"key"`
	Digest string             `json:"digest"`
	Seed   uint64             `json:"seed"`
	Values map[string]float64 `json:"values,omitempty"`
	Labels map[string]string  `json:"labels,omitempty"`
	SimPS  int64              `json:"sim_ps,omitempty"`
	Events uint64             `json:"events,omitempty"`
	Err    string             `json:"err,omitempty"`
}

// Record flattens a cell result for the wire or the store.
func (r CellResult) Record() CellRecord {
	return CellRecord{
		Key: r.Cell.Key, Digest: r.Digest, Seed: r.Seed, Values: r.Values, Labels: r.Labels,
		SimPS: int64(r.SimTime), Events: r.Events, Err: r.Err,
	}
}

// Merger folds externally executed cell records back into a plan's
// result set, in expansion order. It is the coordinator half of the
// fleet: every record must belong to the plan, arrive at most once,
// carry the seed the plan gives its cell, and — the wire-integrity
// check — reproduce its transmitted digest when the digest is
// recomputed locally from the record's content. Safe for concurrent
// Place calls.
type Merger struct {
	plan *Plan
	rs   *Results

	mu     sync.Mutex
	pos    map[string]int
	filled []bool
	n      int
}

// newResults returns the plan's result set, its cells to be filled.
func (p *Plan) newResults() *Results {
	return &Results{
		Cells:    make([]CellResult, len(p.Cells)),
		groupOff: p.groupOffsets(),
		byKey:    make(map[string]*CellResult, len(p.Cells)),
	}
}

// Merger returns an empty result set for the plan, to be filled by
// Place.
func (p *Plan) Merger() *Merger {
	m := &Merger{
		plan:   p,
		rs:     p.newResults(),
		pos:    make(map[string]int, len(p.Cells)),
		filled: make([]bool, len(p.Cells)),
	}
	for i, c := range p.Cells {
		m.pos[c.Key] = i
	}
	return m
}

// Place merges one record and returns the reconstructed cell result.
func (m *Merger) Place(rec CellRecord) (CellResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.placeLocked(rec)
}

func (m *Merger) placeLocked(rec CellRecord) (CellResult, error) {
	i, ok := m.pos[rec.Key]
	if !ok {
		return CellResult{}, fmt.Errorf("sweep: merge: cell %q is not in the plan", rec.Key)
	}
	if m.filled[i] {
		return CellResult{}, fmt.Errorf("sweep: merge: cell %q delivered twice", rec.Key)
	}
	cr, err := m.seal(i, rec)
	if err != nil {
		return CellResult{}, err
	}
	m.filled[i] = true
	m.n++
	m.rs.Cells[i] = cr
	return cr, nil
}

// seal rebuilds cell i's result from rec and checks that rec ran with
// the plan's seed for the cell and that its digest survives the wire. A
// record of another seed — a run under another base seed, resumed into
// this one — is refused like a corrupt one, never as ErrDiverged: it
// answers a different question, not the same one differently.
func (m *Merger) seal(i int, rec CellRecord) (CellResult, error) {
	if want := m.plan.seed(i); rec.Seed != want {
		return CellResult{}, fmt.Errorf("sweep: merge: cell %q record ran with seed %d, the plan's is %d",
			rec.Key, rec.Seed, want)
	}
	cr := CellResult{
		Cell:    m.plan.Cells[i],
		Index:   i,
		Seed:    rec.Seed,
		Values:  rec.Values,
		Labels:  rec.Labels,
		SimTime: netfpga.Time(rec.SimPS),
		Events:  rec.Events,
		Err:     rec.Err,
	}
	cr.Digest = cr.digest()
	if rec.Digest == "" {
		// Every legitimate producer stamps the digest; an empty one is
		// a protocol violation, not a check to skip.
		return CellResult{}, fmt.Errorf("sweep: merge: cell %q record carries no digest", rec.Key)
	}
	if rec.Digest != cr.Digest {
		return CellResult{}, fmt.Errorf("sweep: merge: cell %q digest %s does not survive the wire (recomputed %s)",
			rec.Key, rec.Digest, cr.Digest)
	}
	return cr, nil
}

// Adopt places one record like Place, but tolerates the duplicate a
// recovering fleet can legitimately produce: when a cell is requeued
// off a presumed-dead worker whose in-flight result still arrives, the
// same cell completes twice. An exact duplicate — identical digest,
// which by the digest's construction means identical content — is
// reported as dup=true with no error and no state change. A duplicate
// whose digest does not survive its own content was corrupted in
// transit and fails like any corrupt record; two intact completions
// that disagree are a determinism violation, ErrDiverged.
func (m *Merger) Adopt(rec CellRecord) (cr CellResult, dup bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i, ok := m.pos[rec.Key]; ok && m.filled[i] {
		prev := m.rs.Cells[i]
		if rec.Digest == prev.Digest {
			return prev, true, nil
		}
		if _, err := m.seal(i, rec); err != nil {
			return CellResult{}, false, err
		}
		return CellResult{}, false, fmt.Errorf(
			"sweep: merge: cell %q completed twice with diverging digests (%s then %s): %w",
			rec.Key, prev.Digest, rec.Digest, ErrDiverged)
	}
	cr, err = m.placeLocked(rec)
	return cr, false, err
}

// Filled reports whether the cell for key has already been merged.
func (m *Merger) Filled(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.pos[key]
	return ok && m.filled[i]
}

// Placed returns the number of cells merged so far.
func (m *Merger) Placed() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// Missing returns the keys of plan cells no record has filled, sorted.
func (m *Merger) Missing() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for i, f := range m.filled {
		if !f {
			out = append(out, m.plan.Cells[i].Key)
		}
	}
	sort.Strings(out)
	return out
}

// Results seals and returns the merged result set; it fails when any
// plan cell is still missing (a partial harvest must never silently
// masquerade as a complete run).
func (m *Merger) Results() (*Results, error) {
	if missing := m.Missing(); len(missing) > 0 {
		return nil, fmt.Errorf("sweep: merge incomplete: %d of %d cells missing (first: %s)",
			len(missing), len(m.plan.Cells), missing[0])
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.rs.Cells {
		m.rs.byKey[m.rs.Cells[i].Cell.Key] = &m.rs.Cells[i]
	}
	return m.rs, nil
}
