// Package experiments regenerates every table and figure of the
// reproduction's experiment index (`nf-bench -list`; see README.md).
// Each experiment is a sweep definition — one or more declarative
// scenario groups (board x project x workload x parameter axes) plus a
// per-cell measure function — a renderer that turns the executed cells
// into printable tables with machine-readable metrics, and the paper's
// claims those metrics must satisfy. There is one run path: a sweep
// over a config naming experiments (`nf-bench sweep`, or `nf-bench`
// over an in-memory config) executes, stores and digests the cells,
// then renders every experiment it ran in full and scores its claims
// (Report); the golden-digest test locks every cell's content down.
package experiments

import (
	"fmt"
	"strings"

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

// Def is one experiment expressed as a sweep: its scenario groups (spec
// + measure pairs, expanded and executed by netfpga/sweep), the
// renderer that shapes the executed cells into the paper's tables, and
// the paper's claims those tables must reproduce. Render requires the
// experiment's full, unfiltered result set — renderers pair rows with
// axis labels positionally, mirroring each spec's expansion order — so
// a sweep run renders an experiment only when every one of its cells
// ran and none failed (renderRun).
type Def struct {
	ID     string
	Title  string
	Groups []sweep.Group
	Render func(rs *sweep.Results) []*Table
	Claims []Claim
}

// Claim is one of the paper's claims as data: the table metrics it
// reads, the predicate they must satisfy, the paper's figure it
// reproduces, and why the predicate says so.
type Claim struct {
	Metrics []string
	Holds   func(m map[string]float64) bool
	Paper   string
	Why     string
}

// claim is the common one-metric Claim.
func claim(metric string, holds func(float64) bool, paper, why string) Claim {
	return Claim{Metrics: []string{metric}, Paper: paper, Why: why,
		Holds: func(m map[string]float64) bool { return holds(m[metric]) }}
}

// check evaluates the definition's claims against its rendered tables
// (their metrics merged into one map) and returns one line per claim
// that does not hold; a claim whose metric is missing does not hold.
func (d Def) check(tables []*Table) []string {
	m := map[string]float64{}
	for _, t := range tables {
		for k, v := range t.Metrics {
			m[k] = v
		}
	}
	var misses []string
	for _, c := range d.Claims {
		var vals []string
		ok := true
		for _, k := range c.Metrics {
			v, have := m[k]
			ok = ok && have
			vals = append(vals, fmt.Sprintf("%s=%.4g", k, v))
		}
		if !ok || !c.Holds(m) {
			misses = append(misses, fmt.Sprintf("%s: %s violates: %s (paper: %s)",
				d.ID, strings.Join(vals, " "), c.Why, c.Paper))
		}
	}
	return misses
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

// gbps formats a rate.
func gbps(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
