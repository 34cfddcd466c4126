package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"repro/netfpga"
)

// Outcome is what a measure function reports for one cell: named
// numeric values plus free-form text labels. Both feed the cell's
// digest, the results store, and the experiment's table renderer.
type Outcome struct {
	Values map[string]float64
	Labels map[string]string
}

// Set records a numeric value.
func (o *Outcome) Set(key string, v float64) {
	if o.Values == nil {
		o.Values = make(map[string]float64)
	}
	o.Values[key] = v
}

// SetTime records a simulated time as picoseconds.
func (o *Outcome) SetTime(key string, t netfpga.Time) { o.Set(key, float64(t)) }

// SetBool records a flag as 0/1.
func (o *Outcome) SetBool(key string, v bool) {
	if v {
		o.Set(key, 1)
	} else {
		o.Set(key, 0)
	}
}

// Label records a text value.
func (o *Outcome) Label(key, v string) {
	if o.Labels == nil {
		o.Labels = make(map[string]string)
	}
	o.Labels[key] = v
}

// Measure runs one cell's workload on its device context and reports
// the outcome. It is the experiment's entire per-device logic; sweep
// owns everything around it (instantiation, seeding, stats capture,
// digesting).
type Measure func(c *Ctx, cell Cell) (Outcome, error)

// Group pairs a spec with the measure that runs its cells.
type Group struct {
	Spec    Spec
	Measure Measure
}

// CellResult is one executed cell.
type CellResult struct {
	// Cell echoes the expanded scenario.
	Cell Cell
	// Index is the cell's position in the run's flat batch.
	Index int
	// Seed is the seed the device actually ran with.
	Seed uint64
	// Values and Labels are the measure's outcome.
	Values map[string]float64
	Labels map[string]string
	// SimTime is the device's final simulated time (zero for NoDevice
	// cells).
	SimTime netfpga.Time
	// Events is the number of simulation events the engine executed for
	// the cell: telemetry about how the engine got there, not part of
	// the result, so the digest leaves it out.
	Events uint64
	// Err is the cell's failure, if any ("" for success). Errors are
	// recorded, digested, and surfaced — not fatal to the batch.
	Err string
	// Digest is the stable content digest over everything above except
	// Index and Events: two runs of the same cell agree on it
	// byte-for-byte iff they agree on the result.
	Digest string
}

// V returns a numeric value, panicking on a failed cell or a missing
// key — experiment renderers use it where absence is a bug.
func (r CellResult) V(key string) float64 {
	if r.Err != "" {
		panic(fmt.Sprintf("sweep: cell %s failed: %s", r.Cell.Key, r.Err))
	}
	v, ok := r.Values[key]
	if !ok {
		panic(fmt.Sprintf("sweep: cell %s has no value %q", r.Cell.Key, key))
	}
	return v
}

// T returns a value recorded with SetTime.
func (r CellResult) T(key string) netfpga.Time { return netfpga.Time(r.V(key)) }

// U returns a value as uint64.
func (r CellResult) U(key string) uint64 { return uint64(r.V(key)) }

// L returns a text label ("" when absent).
func (r CellResult) L(key string) string { return r.Labels[key] }

// DigestVersion names the digest's text layout. Version 1 hashed the
// engine's event count too; version 2 hashes only what the cell
// observed. The fleet's Hello and the result store's run meta carry it,
// so a worker or a stored run of another version is refused up front
// instead of failing every cell's digest check.
const DigestVersion = 2

// CheckDigestVersion returns nil when v, the digest version a worker or
// a stored run declares, is DigestVersion, and otherwise an error that
// names both versions, whose naming the peer or run it starts with.
// A missing version (0) is version 1, which predates the field.
func CheckDigestVersion(who string, v int) error {
	if v == DigestVersion {
		return nil
	}
	if v == 0 {
		v = 1
	}
	return fmt.Errorf("%s digests with version %d, this binary with version %d", who, v, DigestVersion)
}

// digest computes the canonical content digest over the text
//
//	<key>\nseed=0x<seed hex> sim=<ps>\n
//	v <name>=<IEEE-754 bits, 16 hex digits>\n   per value, sorted
//	l <name>=<label>\n                           per label, sorted
//	err <error>\n                                when failed
//
// Floats are encoded as their exact bits so the digest never depends on
// formatting. The event count is not hashed: it says how many callbacks
// the engine ran, which a change to the engine may move while every
// observable result stays bit-identical. The text is built by appends into one buffer: a fleet cell
// is digested twice, once sealed and once merged.
func (r *CellResult) digest() string {
	b := make([]byte, 0, 64+len(r.Cell.Key)+48*(len(r.Values)+len(r.Labels))+len(r.Err))
	b = append(b, r.Cell.Key...)
	b = append(b, "\nseed=0x"...)
	b = strconv.AppendUint(b, r.Seed, 16)
	b = append(b, " sim="...)
	b = strconv.AppendInt(b, int64(r.SimTime), 10)
	b = append(b, '\n')
	var bits [8]byte
	for _, k := range SortKeys(r.Values) {
		b = append(b, "v "...)
		b = append(b, k...)
		b = append(b, '=')
		binary.BigEndian.PutUint64(bits[:], math.Float64bits(r.Values[k]))
		b = hex.AppendEncode(b, bits[:])
		b = append(b, '\n')
	}
	for _, k := range SortKeys(r.Labels) {
		b = append(b, "l "...)
		b = append(b, k...)
		b = append(b, '=')
		b = append(b, r.Labels[k]...)
		b = append(b, '\n')
	}
	if r.Err != "" {
		b = append(b, "err "...)
		b = append(b, r.Err...)
		b = append(b, '\n')
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// Results is an executed batch: every cell result in expansion order,
// sliceable by group.
type Results struct {
	Cells []CellResult

	groupOff []int // first cell index of each group; len = groups+1
	byKey    map[string]*CellResult
}

// Group returns group i's results in cell order.
func (rs *Results) Group(i int) []CellResult {
	return rs.Cells[rs.groupOff[i]:rs.groupOff[i+1]]
}

// Groups returns groups [lo, hi) as a result set of their own, whose
// Group(0) is group lo. The view shares the cells and the key index, so
// Get still finds every cell of the batch.
func (rs *Results) Groups(lo, hi int) *Results {
	off := make([]int, hi-lo+1)
	for i := range off {
		off[i] = rs.groupOff[lo+i] - rs.groupOff[lo]
	}
	return &Results{Cells: rs.Cells[rs.groupOff[lo]:rs.groupOff[hi]], groupOff: off, byKey: rs.byKey}
}

// Get returns the result for a cell key, or nil.
func (rs *Results) Get(key string) *CellResult { return rs.byKey[key] }

// Digests returns the key -> digest map of the whole batch.
func (rs *Results) Digests() map[string]string {
	out := make(map[string]string, len(rs.Cells))
	for _, c := range rs.Cells {
		out[c.Cell.Key] = c.Digest
	}
	return out
}

// Failed returns the failed cells.
func (rs *Results) Failed() []CellResult {
	var out []CellResult
	for _, c := range rs.Cells {
		if c.Err != "" {
			out = append(out, c)
		}
	}
	return out
}

// SeedForKey derives a cell's seed purely from (base, key): a 64-bit
// FNV-1a of the key folded with the base through a splitmix64 step.
// Independence from batch position is what keeps filtered or reordered
// sweeps byte-identical to full ones, cell for cell.
func SeedForKey(base uint64, key string) uint64 {
	z := fnv64(key) ^ base
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return z
}

// ExpandGroups expands every group with the given filter and returns
// the flat cell list plus per-group offsets.
func ExpandGroups(groups []Group, filter string) ([]Cell, []int, error) {
	var cells []Cell
	off := make([]int, 0, len(groups)+1)
	off = append(off, 0)
	for gi := range groups {
		cs, err := groups[gi].Spec.Expand(filter)
		if err != nil {
			return nil, nil, err
		}
		cells = append(cells, cs...)
		off = append(off, len(cells))
	}
	return cells, off, nil
}

// RunGroups plans the groups against the runner's base seed, executes
// them on the runner and returns the full result set in cell order.
// Per-cell failures are recorded in the results, not returned as an
// error.
func RunGroups(ctx context.Context, r *Runner, groups []Group, filter string) (*Results, error) {
	p, err := PlanGroups(groups, filter, r.BaseSeed)
	if err != nil {
		return nil, err
	}
	ch, rs, _ := p.Execute(ctx, r)
	for range ch {
	}
	return rs, nil
}
