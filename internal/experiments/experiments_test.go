package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsRun renders every paper experiment from the
// workers=1 sweep run TestGoldenSweep digests, and asserts each claim's
// "shape": every experiment has tables, every table has rows and
// renders its title, and every Def.Claims predicate holds.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	cfg, groups := paperConfig(t)
	rendered, skipped := renderRun(cfg, paperRun(t, groups, 1))
	if len(skipped) > 0 || len(rendered) != len(cfg.Experiments) {
		t.Fatalf("rendered %d of %d experiments; skipped %v", len(rendered), len(cfg.Experiments), skipped)
	}
	claims := 0
	for _, r := range rendered {
		if len(r.Tables) == 0 {
			t.Errorf("%s produced no tables", r.Def.ID)
		}
		for _, tab := range r.Tables {
			if len(tab.Rows) == 0 {
				t.Errorf("%s/%s has no rows", r.Def.ID, tab.ID)
			}
			if !strings.Contains(tab.String(), tab.Title) {
				t.Errorf("%s render broken", tab.ID)
			}
		}
		claims += len(r.Def.Claims)
		for _, miss := range r.Def.check(r.Tables) {
			t.Errorf("claim not reproduced: %s", miss)
		}
	}
	if claims != 17 {
		t.Errorf("the experiments carry %d claims, want the paper's 17", claims)
	}
}

func TestByID(t *testing.T) {
	if d, ok := DefByID("T4"); !ok || d.ID != "T4" {
		t.Fatal("T4 missing")
	}
	if _, ok := DefByID("nope"); ok {
		t.Fatal("bogus ID found")
	}
	seen := map[string]bool{}
	for _, d := range Defs() {
		if seen[d.ID] {
			t.Fatalf("duplicate experiment ID %s", d.ID)
		}
		seen[d.ID] = true
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Columns: []string{"a", "longcolumn"}}
	tab.AddRow("1", "2")
	tab.AddRow("333333", "4")
	tab.Notes = append(tab.Notes, "a note")
	s := tab.String()
	for _, want := range []string{"X — demo", "longcolumn", "333333", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}
