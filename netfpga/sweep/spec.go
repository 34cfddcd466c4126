// Package sweep is the scenario-matrix subsystem: a declarative Spec
// describes an experiment's axes (boards x projects x workloads x BER x
// seeds, plus arbitrary named parameter axes), Expand crosses them into
// Cells with stable canonical keys, and every cell runs as one call —
// on a device from the plan's cache or a fresh one — producing
// seed-deterministic results with stable content digests. It is also
// the executor: Plan.Pool is the one pool a plan's cells run on, fed by
// Plan.Execute on a Runner (the library's in-process batch) or by a
// shard session worker with the cells its coordinator assigns, and
// Plan.RunCell runs one cell alone; all call the same function per cell.
//
// The paper's pitch is that NetFPGA makes exploring many device and
// workload configurations cheap; sweep is that claim's software on-ramp.
// A sweep cell is fully identified by its key, its seed derives from
// (base seed, key) — never from batch position — so filtering,
// reordering or re-running any subset reproduces byte-identical results,
// which is what makes golden-digest regression testing over the whole
// experiment table possible.
package sweep

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/netfpga"
	"repro/netfpga/workload"
)

// Workload names one workload-axis value: a frame-size mix and flow
// count for the traffic generator. A zero Sizes list means IMIX.
type Workload struct {
	Name  string                `json:"name"`
	Sizes []workload.SizeWeight `json:"sizes,omitempty"`
	Flows int                   `json:"flows,omitempty"`
	// Background tags the first Background flows as background traffic
	// for hybrid-fidelity cells (full-fidelity cells ignore it).
	Background int `json:"background,omitempty"`
}

// Config returns the generator configuration for the given seed.
func (w Workload) Config(seed uint64) workload.Config {
	return workload.Config{Seed: seed, Sizes: w.Sizes, Flows: w.Flows, Background: w.Background}
}

// Axis is one generic named parameter axis. Values are strings; Cell
// accessors parse them on demand.
type Axis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// Spec is one declarative scenario matrix. Cells are the cross product
// of every non-empty axis, expanded in a fixed nesting order (boards,
// projects, workloads, BERs, seeds, then Params in declaration order) so
// cell order — and therefore result order — is a pure function of the
// spec.
type Spec struct {
	// Name prefixes every cell key ("T4/mesh").
	Name string `json:"name"`
	// Boards are board registry names (see Board). Empty means one
	// unnamed SUME cell (no board= key component).
	Boards []string `json:"boards,omitempty"`
	// Projects are netfpga/projects registry names. When set, each
	// cell's device gets the project built before measurement unless
	// NoBuild is set.
	Projects []string `json:"projects,omitempty"`
	// Workloads is the traffic-mix axis.
	Workloads []Workload `json:"workloads,omitempty"`
	// BERs is the injected bit-error-rate axis.
	BERs []float64 `json:"bers,omitempty"`
	// Seeds pins explicit per-cell seeds (must be non-zero). Empty
	// means one cell per combination with a seed derived from the cell
	// key and the run's base seed.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Fidelities is the execution-fidelity axis ("full"/"hybrid").
	// Empty means full fidelity with no fid= key component, so every
	// pre-existing spec expands to byte-identical keys (and therefore
	// identical derived seeds and digests).
	Fidelities []string `json:"fidelities,omitempty"`
	// Params are additional named axes.
	Params []Axis `json:"params,omitempty"`
	// WindowUS bounds the generic measure's drive window in simulated
	// microseconds (0 means 200).
	WindowUS int `json:"window_us,omitempty"`
	// NoDevice marks pure-compute cells (no board instantiated).
	NoDevice bool `json:"no_device,omitempty"`
	// NoHost instantiates devices without the PCIe host (standalone).
	NoHost bool `json:"no_host,omitempty"`
	// NoBuild suppresses the automatic project build for cells with a
	// project axis (the measure constructs the project itself).
	NoBuild bool `json:"no_build,omitempty"`
	// Measure selects the built-in measure for config-file scenarios:
	// "" or "generic" is GenericMeasure (saturating traffic totals),
	// "latency" is LatencyMeasure (paced probes, per-frame latency
	// percentiles). Code-defined groups set Group.Measure directly and
	// ignore this field.
	Measure string `json:"measure,omitempty"`
	// Include/Exclude are cell-key filters applied at expansion (see
	// Matches).
	Include string `json:"include,omitempty"`
	Exclude string `json:"exclude,omitempty"`
	// BoardFor, when non-nil, overrides board resolution per cell —
	// for code-defined specs whose boards are derived, not registered
	// (e.g. T3's fat-port PCIe variants). Not expressible in JSON.
	BoardFor func(Cell) (netfpga.BoardSpec, error) `json:"-"`
}

// Window returns the generic measure's drive window.
func (s *Spec) Window() netfpga.Time {
	if s.WindowUS <= 0 {
		return 200 * netfpga.Microsecond
	}
	return netfpga.Time(s.WindowUS) * netfpga.Microsecond
}

// Cell is one expanded scenario: a single device configuration with its
// canonical key.
type Cell struct {
	// Key is the canonical identity: the spec name plus every axis
	// value in expansion order ("T1/board=sume/frame=64").
	Key string
	// Spec points back at the owning spec.
	Spec *Spec
	// Board, Project, Workload, BER and Seed echo the first-class axis
	// values (zero values when the axis is unused). Seed 0 means
	// derived from (base seed, key) at run time.
	Board    string
	Project  string
	Workload Workload
	BER      float64
	Seed     uint64
	// Fidelity is the cell's execution fidelity ("" means full).
	Fidelity string
	// Param holds the generic axis values.
	Param map[string]string

	// devs is the cache of the plan running the cell, which lends the
	// built-in measures a workload generator; nil outside a running
	// cell.
	devs *devices
}

// Str returns a generic axis value, failing loudly when the axis is
// missing — cells are code-defined, so absence is a programming error.
func (c Cell) Str(name string) string {
	v, ok := c.Param[name]
	if !ok {
		panic(fmt.Sprintf("sweep: cell %s has no param %q", c.Key, name))
	}
	return v
}

// ParamOr returns a generic axis value, or def when the axis is absent
// — for measures whose knobs are optional spec axes.
func (c Cell) ParamOr(name, def string) string {
	if v, ok := c.Param[name]; ok {
		return v
	}
	return def
}

// Int parses a generic axis value as an int.
func (c Cell) Int(name string) int {
	v, err := strconv.Atoi(c.Str(name))
	if err != nil {
		panic(fmt.Sprintf("sweep: cell %s param %q: %v", c.Key, name, err))
	}
	return v
}

// Float parses a generic axis value as a float64.
func (c Cell) Float(name string) float64 {
	v, err := strconv.ParseFloat(c.Str(name), 64)
	if err != nil {
		panic(fmt.Sprintf("sweep: cell %s param %q: %v", c.Key, name, err))
	}
	return v
}

// Duration parses a generic axis value as simulated microseconds.
func (c Cell) Duration(name string) netfpga.Time {
	return netfpga.Time(c.Int(name)) * netfpga.Microsecond
}

// fmtFloat renders a float axis value canonically (shortest round-trip
// form, so keys are stable and readable: 1e-07, 0.5, 2000).
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// hybridProject is the one project a hybrid cell may run (see Expand).
const hybridProject = "reference_switch"

// Expand crosses the spec's axes into cells, applying the spec's own
// Include/Exclude and then the extra filter expression. The result order
// is deterministic and independent of any filter.
func (s *Spec) Expand(filter string) ([]Cell, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("sweep: spec has no name")
	}
	for _, sd := range s.Seeds {
		if sd == 0 {
			return nil, fmt.Errorf("sweep: spec %s: explicit seed 0 is reserved for derivation", s.Name)
		}
	}
	for _, p := range s.Params {
		if p.Name == "" || len(p.Values) == 0 {
			return nil, fmt.Errorf("sweep: spec %s: param axis needs a name and values", s.Name)
		}
	}
	for _, f := range s.Fidelities {
		if f != netfpga.FidelityFull && f != netfpga.FidelityHybrid {
			return nil, fmt.Errorf("sweep: spec %s: unknown fidelity %q", s.Name, f)
		}
	}
	if len(s.Projects) > 0 && !s.NoBuild && !s.NoDevice {
		for _, name := range s.Projects {
			if _, ok := ProjectEntry(name); !ok {
				return nil, fmt.Errorf("sweep: spec %s: unknown project %q", s.Name, name)
			}
		}
	}
	if len(s.Boards) > 0 && s.BoardFor == nil && !s.NoDevice {
		for _, name := range s.Boards {
			if _, ok := Board(name); !ok {
				return nil, fmt.Errorf("sweep: spec %s: unknown board %q", s.Name, name)
			}
		}
	}

	// or1 turns an empty axis into a single "absent" slot so the nested
	// product below stays uniform.
	boards := s.Boards
	if len(boards) == 0 {
		boards = []string{""}
	}
	projects := s.Projects
	if len(projects) == 0 {
		projects = []string{""}
	}
	workloads := s.Workloads
	if len(workloads) == 0 {
		workloads = []Workload{{}}
	}
	bers := s.BERs
	useBER := len(bers) > 0
	if !useBER {
		bers = []float64{0}
	}
	seeds := s.Seeds
	useSeed := len(seeds) > 0
	if !useSeed {
		seeds = []uint64{0}
	}
	fids := s.Fidelities
	useFid := len(fids) > 0
	if !useFid {
		fids = []string{""}
	}
	// The background model delivers every background frame to every
	// egress but its ingress: the reference switch's flood of the
	// workload's never-learned destinations, and no other design's
	// decision, so it represents no other project.
	if slices.Contains(fids, netfpga.FidelityHybrid) {
		for _, p := range projects {
			if p != hybridProject {
				return nil, fmt.Errorf("sweep: spec %s: hybrid fidelity cannot represent project %q: the background model routes only as %s does (ROADMAP item 17)", s.Name, p, hybridProject)
			}
		}
	}

	var cells []Cell
	for _, b := range boards {
		for _, proj := range projects {
			for _, wl := range workloads {
				for _, ber := range bers {
					for _, seed := range seeds {
						for _, fid := range fids {
							base := Cell{Spec: s, Board: b, Project: proj,
								Workload: wl, BER: ber, Seed: seed, Fidelity: fid}
							var key strings.Builder
							key.WriteString(s.Name)
							add := func(k, v string) {
								key.WriteByte('/')
								key.WriteString(k)
								key.WriteByte('=')
								key.WriteString(v)
							}
							if b != "" {
								add("board", b)
							}
							if proj != "" {
								add("project", proj)
							}
							if wl.Name != "" {
								add("wl", wl.Name)
							}
							if useBER {
								add("ber", fmtFloat(ber))
							}
							if useSeed {
								add("seed", strconv.FormatUint(seed, 10))
							}
							if useFid {
								add("fid", fid)
							}
							cells = appendParamCells(cells, base, key.String(), s.Params)
						}
					}
				}
			}
		}
	}

	out := cells[:0]
	for _, c := range cells {
		if !Matches(c.Key, s.Include, s.Exclude) {
			continue
		}
		if filter != "" && !Matches(c.Key, filter, "") {
			continue
		}
		out = append(out, c)
	}
	return out, nil
}

// appendParamCells recursively crosses the generic axes.
func appendParamCells(cells []Cell, base Cell, key string, params []Axis) []Cell {
	if len(params) == 0 {
		base.Key = key
		return append(cells, base)
	}
	ax := params[0]
	for _, v := range ax.Values {
		next := base
		next.Param = cloneParams(base.Param)
		next.Param[ax.Name] = v
		cells = appendParamCells(cells, next, key+"/"+ax.Name+"="+v, params[1:])
	}
	return cells
}

func cloneParams(m map[string]string) map[string]string {
	out := make(map[string]string, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Matches implements the filter language used by spec Include/Exclude
// and the CLI -filter flag: an expression is a list of terms separated
// by spaces or commas; a term prefixed with '!' or '-' excludes keys
// containing it, a plain term includes them. A key matches when it
// contains at least one include term (or there are none) and no exclude
// term. An empty expression matches everything.
func Matches(key, include, exclude string) bool {
	inc, excFromInc := splitTerms(include)
	exc, _ := splitTerms(exclude)
	exc = append(exc, excFromInc...)
	for _, t := range exc {
		if strings.Contains(key, t) {
			return false
		}
	}
	if len(inc) == 0 {
		return true
	}
	for _, t := range inc {
		if strings.Contains(key, t) {
			return true
		}
	}
	return false
}

// splitTerms tokenises a filter expression into include and exclude
// terms.
func splitTerms(expr string) (inc, exc []string) {
	for _, t := range strings.FieldsFunc(expr, func(r rune) bool {
		return r == ' ' || r == ',' || r == '\t'
	}) {
		switch {
		case strings.HasPrefix(t, "!"):
			exc = append(exc, t[1:])
		case strings.HasPrefix(t, "-"):
			exc = append(exc, t[1:])
		default:
			inc = append(inc, t)
		}
	}
	return inc, exc
}

// SortKeys returns the sorted keys of a string-keyed map — the canonical
// iteration order everywhere digests or rendered output depend on map
// contents.
func SortKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
