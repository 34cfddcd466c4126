// Package experiments regenerates every table and figure of the
// reproduction's experiment index (`nf-bench -list`; see README.md).
// Each experiment is a sweep definition — one or more declarative
// scenario groups (board x project x workload x parameter axes) plus a
// per-cell measure function — and a renderer that turns the executed
// cells into printable tables with machine-readable metrics.
// cmd/nf-bench renders the tables, the sweep CLI stores and diffs the
// raw cells, and the golden-digest test locks every cell's content down.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/netfpga/fleet"
	"repro/netfpga/sweep"
)

// Table is one rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Metrics are the headline numbers, for benchmark reporting and
	// assertions (key -> value).
	Metrics map[string]float64
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Metric records a headline number.
func (t *Table) Metric(key string, v float64) {
	if t.Metrics == nil {
		t.Metrics = make(map[string]float64)
	}
	t.Metrics[key] = v
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one runnable experiment. Run receives the fleet runner
// that executes the experiment's devices: a sequential runner
// reproduces the classic one-device-at-a-time behaviour, a parallel one
// spreads the same jobs across workers with identical results (each
// device is seeded and stepped independently).
type Experiment struct {
	ID    string
	Title string
	Run   func(r *fleet.Runner) []*Table
}

// Def is one experiment expressed as a sweep: its scenario groups (spec
// + measure pairs, expanded and executed by netfpga/sweep) and the
// renderer that shapes the executed cells into the paper's tables.
// Render requires a full, unfiltered result set — renderers pair rows
// with axis labels positionally, mirroring each spec's expansion order.
// Filtered sweeps (nf-bench sweep -filter) report raw cells and never
// render tables.
type Def struct {
	ID     string
	Title  string
	Groups []sweep.Group
	Render func(rs *sweep.Results) []*Table
}

// RunStreamed executes the definition's groups on the runner,
// invoking onCell (when non-nil) for every finished cell in completion
// order — the hook nf-bench's incremental table rendering hangs
// progress off — and renders the tables once the batch drains.
func (d Def) RunStreamed(r *fleet.Runner, onCell func(sweep.CellResult)) []*Table {
	ch, rs, err := sweep.RunStreamGroups(context.Background(), r, d.Groups, "")
	if err != nil {
		panic(err)
	}
	for cr := range ch {
		if onCell != nil {
			onCell(cr)
		}
	}
	return d.Render(rs)
}

// Experiment adapts the definition to the classic Run interface: expand
// every group, execute the flat batch on the runner, render.
func (d Def) Experiment() Experiment {
	return Experiment{ID: d.ID, Title: d.Title, Run: func(r *fleet.Runner) []*Table {
		return d.RunStreamed(r, nil)
	}}
}

// Defs returns every experiment definition in index order.
func Defs() []Def {
	return []Def{
		defF1(),
		defT1(),
		defT2(),
		defT3(),
		defT4(),
		defT5(),
		defT6(),
		defT7(),
		defT8(),
		defF2(),
		defT9(),
	}
}

// DefByID returns the definition with the given ID.
func DefByID(id string) (Def, bool) {
	for _, d := range Defs() {
		if d.ID == id {
			return d, true
		}
	}
	return Def{}, false
}

// All returns every experiment in index order.
func All() []Experiment {
	defs := Defs()
	out := make([]Experiment, len(defs))
	for i, d := range defs {
		out[i] = d.Experiment()
	}
	return out
}

// GroupsForConfig resolves a sweep config into runnable groups: the
// named experiments' groups in config order, then the config's custom
// scenarios driven by the generic measure.
func GroupsForConfig(cfg *sweep.Config) ([]sweep.Group, error) {
	var groups []sweep.Group
	for _, id := range cfg.Experiments {
		d, ok := DefByID(id)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q in sweep config", id)
		}
		groups = append(groups, d.Groups...)
	}
	return append(groups, cfg.ScenarioGroups()...), nil
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// gbps formats a rate.
func gbps(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
