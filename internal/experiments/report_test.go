package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/netfpga/sweep"
)

// renderText is the printed form of one experiment's tables.
func renderText(tables []*Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
	}
	return b.String()
}

// TestRenderRunMatchesStandalone: the tables a sweep run of
// examples/paper.sweep renders are byte-equal to each Def's Render over
// a standalone RunGroups of that Def, whichever path filled the result
// set — a pool of 1 or 4 workers, or a Merger fed the records in
// reverse, as the fleet and -resume fill it.
func TestRenderRunMatchesStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is slow")
	}
	ctx := context.Background()
	cfg, groups := paperConfig(t)
	want := map[string]string{}
	for _, id := range cfg.Experiments {
		d, _ := DefByID(id)
		rs, err := sweep.RunGroups(ctx, &sweep.Runner{Workers: 0}, d.Groups, "")
		if err != nil {
			t.Fatal(err)
		}
		want[id] = renderText(d.Render(rs))
	}

	check := func(path string, rs *sweep.Results) {
		t.Helper()
		rendered, skipped := renderRun(cfg, rs)
		if len(skipped) > 0 || len(rendered) != len(cfg.Experiments) {
			t.Fatalf("%s: rendered %d of %d experiments; skipped %v", path, len(rendered), len(cfg.Experiments), skipped)
		}
		for i, r := range rendered {
			if r.Def.ID != cfg.Experiments[i] {
				t.Errorf("%s: experiment %d is %s, config says %s", path, i, r.Def.ID, cfg.Experiments[i])
			}
			if got := renderText(r.Tables); got != want[r.Def.ID] {
				t.Errorf("%s: %s tables differ from a standalone run:\n%s\nwant:\n%s", path, r.Def.ID, got, want[r.Def.ID])
			}
		}
	}

	// The legs at workers 1 and 4 are the runs TestGoldenSweep digests.
	first := paperRun(t, groups, 1)
	check("workers=1", first)
	check("workers=4", paperRun(t, groups, 4))

	plan, err := sweep.PlanGroups(groups, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	m := plan.Merger()
	for i := len(first.Cells) - 1; i >= 0; i-- {
		if _, err := m.Place(first.Cells[i].Record()); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := m.Results()
	if err != nil {
		t.Fatal(err)
	}
	check("Merger", merged)
}

// reportOf runs the paper config's groups under filter and returns what
// Report prints for the run. wrap, when non-nil, may replace the
// groups' measures first.
func reportOf(t *testing.T, filter string, wrap func(g *sweep.Group)) (string, []renderedDef, []string) {
	t.Helper()
	cfg, groups := paperConfig(t)
	if wrap != nil {
		groups = append([]sweep.Group(nil), groups...)
		for i := range groups {
			wrap(&groups[i])
		}
	}
	plan, err := sweep.PlanGroups(groups, filter, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, rs, err := plan.Execute(context.Background(), &sweep.Runner{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for range ch {
	}
	var b bytes.Buffer
	Report(&b, cfg, rs)
	rendered, skipped := renderRun(cfg, rs)
	return b.String(), rendered, skipped
}

// TestRenderRunPartial: a filtered run renders exactly the experiments
// it ran in full; one it ran in part, or with a failed cell, is named
// on the skip line instead of rendered (a failed cell's V would panic).
func TestRenderRunPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	out, rendered, skipped := reportOf(t, "T4", nil)
	if len(rendered) != 1 || rendered[0].Def.ID != "T4" || len(skipped) != 0 {
		t.Errorf("-filter T4: rendered %d, skipped %v; want T4 only", len(rendered), skipped)
	}
	if strings.Count(out, "==== ") != 1 || !strings.Contains(out, "==== T4: ") ||
		!strings.Contains(out, "claims: 2/2 reproduced") || strings.Contains(out, "skipped") {
		t.Errorf("-filter T4 report:\n%s", out)
	}

	out, rendered, skipped = reportOf(t, "T4/mesh", nil)
	if len(rendered) != 0 || len(skipped) != 1 || skipped[0] != "T4 (5 of 10 cells ran)" {
		t.Errorf("half of T4: rendered %d, skipped %v", len(rendered), skipped)
	}
	if strings.Contains(out, "====") || strings.Contains(out, "claims:") ||
		strings.Count(out, "\n") != 1 || !strings.HasPrefix(out, "tables skipped") {
		t.Errorf("half of T4 report, want the skip line alone:\n%s", out)
	}

	failOne := func(g *sweep.Group) {
		if g.Spec.Name != "T5" {
			return
		}
		measure := g.Measure
		g.Measure = func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
			if cell.Str("fib") == "1024" && cell.Str("frame") == "64" {
				return sweep.Outcome{}, errors.New("injected failure")
			}
			return measure(c, cell)
		}
	}
	out, rendered, skipped = reportOf(t, "T5", failOne)
	if len(rendered) != 0 || len(skipped) != 1 || skipped[0] != "T5 (1 of 6 cells failed)" {
		t.Errorf("failed T5 cell: rendered %d, skipped %v", len(rendered), skipped)
	}
	if strings.Contains(out, "====") || !strings.HasPrefix(out, "tables skipped") {
		t.Errorf("failed T5 cell report:\n%s", out)
	}
}
