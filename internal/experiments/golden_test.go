package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/netfpga/sweep"
)

var update = flag.Bool("update", false, "regenerate testdata/golden_sweep.json")

const goldenPath = "testdata/golden_sweep.json"

// paperGroups loads the canonical paper sweep config — the same file
// `nf-bench sweep` and the CI golden gate run — and resolves it to
// runnable groups. Keeping the test and the CLI on one config means a
// digest mismatch fails identically everywhere.
func paperGroups(t *testing.T) []sweep.Group {
	t.Helper()
	_, groups := paperConfig(t)
	return groups
}

// paperConfig is paperGroups that also returns the config itself.
func paperConfig(t *testing.T) (*sweep.Config, []sweep.Group) {
	t.Helper()
	cfg, err := sweep.LoadConfig(filepath.Join("..", "..", "examples", "paper.sweep"))
	if err != nil {
		t.Fatalf("loading paper sweep config: %v", err)
	}
	if len(cfg.Experiments) != len(Defs()) {
		t.Fatalf("paper config runs %d experiments, repo defines %d — update examples/paper.sweep",
			len(cfg.Experiments), len(Defs()))
	}
	groups, err := GroupsForConfig(cfg)
	if err != nil {
		t.Fatalf("resolving config: %v", err)
	}
	return cfg, groups
}

var (
	paperMu   sync.Mutex
	paperRuns = map[int]*sweep.Results{}
)

// paperRun returns the run of the paper config's groups on a pool of
// the given width. Each width runs once per test binary: TestGoldenSweep
// digests the runs at 1 and 4, TestAllExperimentsRun renders the
// workers=1 run and TestRenderRunMatchesStandalone renders both, so no
// test re-executes a sweep another one has run.
func paperRun(t *testing.T, groups []sweep.Group, workers int) *sweep.Results {
	t.Helper()
	paperMu.Lock()
	defer paperMu.Unlock()
	if rs, ok := paperRuns[workers]; ok {
		return rs
	}
	rs, err := sweep.RunGroups(context.Background(), &sweep.Runner{Workers: workers}, groups, "")
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	paperRuns[workers] = rs
	return rs
}

// TestGoldenSweep is the repo's regression net in one table: every cell
// of every paper experiment (plus the config's custom scenario matrix)
// runs at worker counts 1, 4 and 8; the three runs must produce
// byte-identical per-cell digests, and the digests must match the
// checked-in golden table. Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestGoldenSweep -update
func TestGoldenSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is slow")
	}
	_, groups := paperConfig(t)

	var results []*sweep.Results
	for _, workers := range []int{1, 4, 8} {
		results = append(results, paperRun(t, groups, workers))
	}
	for wi, rs := range results {
		for _, f := range rs.Failed() {
			t.Errorf("workers=%d: cell %s failed: %s", []int{1, 4, 8}[wi], f.Cell.Key, f.Err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Worker-count invariance: the digests, cell for cell.
	base := results[0]
	for wi, rs := range results[1:] {
		workers := []int{4, 8}[wi]
		if len(rs.Cells) != len(base.Cells) {
			t.Fatalf("workers=%d produced %d cells, workers=1 produced %d",
				workers, len(rs.Cells), len(base.Cells))
		}
		for i := range rs.Cells {
			if rs.Cells[i].Digest != base.Cells[i].Digest {
				t.Errorf("cell %s diverges between workers=1 and workers=%d (%s vs %s)",
					rs.Cells[i].Cell.Key, workers, base.Cells[i].Digest, rs.Cells[i].Digest)
			}
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	if *update {
		note := "regenerate with: go test ./internal/experiments -run TestGoldenSweep -update"
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := sweep.WriteGolden(goldenPath, sweep.NewGolden(note, 0, base)); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells)", goldenPath, len(base.Cells))
		return
	}

	g, err := sweep.ReadGolden(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	for _, d := range sweep.DiffGolden(g, base, false) {
		t.Errorf("golden mismatch:\n  %s", d)
	}
	if t.Failed() {
		t.Log("if the change is intentional, regenerate with -update")
	}
}

// TestGoldenCoversEveryExperiment pins the golden table's shape: every
// experiment definition contributes at least one cell, keys are unique,
// and each group's expansion is non-empty — so an experiment silently
// dropping out of the golden net is impossible.
func TestGoldenCoversEveryExperiment(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range Defs() {
		if len(d.Groups) == 0 {
			t.Errorf("%s has no sweep groups", d.ID)
		}
		total := 0
		for gi, g := range d.Groups {
			cells, err := g.Spec.Expand("")
			if err != nil {
				t.Fatalf("%s group %d: %v", d.ID, gi, err)
			}
			if len(cells) == 0 {
				t.Errorf("%s group %d (%s) expands to no cells", d.ID, gi, g.Spec.Name)
			}
			total += len(cells)
			for _, c := range cells {
				if seen[c.Key] {
					t.Errorf("duplicate cell key across experiments: %s", c.Key)
				}
				seen[c.Key] = true
			}
		}
		if total == 0 {
			t.Errorf("%s contributes no cells to the golden table", d.ID)
		}
	}

	if _, err := os.Stat(goldenPath); err != nil {
		t.Skipf("golden not generated yet: %v", err)
	}
	g, err := sweep.ReadGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for key := range seen {
		if _, ok := g.Cells[key]; !ok {
			t.Errorf("cell %s missing from %s (regenerate with -update)", key, goldenPath)
		}
	}
	for _, d := range Defs() {
		found := false
		for key := range g.Cells {
			if sweep.Matches(key, d.Groups[0].Spec.Name+"/", "") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("experiment %s has no cells in the golden table", d.ID)
		}
	}
}
