package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/netfpga"
	"repro/netfpga/workload"
)

// matrixGroup is the canonical test matrix: a small board x project x
// workload x BER x seed product driven by the generic measure.
func matrixGroup(windowUS int) Group {
	return Group{
		Spec: Spec{
			Name:     "m",
			Boards:   []string{"sume"},
			Projects: []string{"reference_switch", "reference_iotest"},
			Workloads: []Workload{
				{Name: "imix"},
				{Name: "min", Sizes: []workload.SizeWeight{{Bytes: 60, Weight: 1}}},
			},
			BERs:     []float64{0, 1e-5},
			Seeds:    []uint64{1},
			WindowUS: windowUS,
		},
		Measure: GenericMeasure,
	}
}

func TestExpandOrderAndKeys(t *testing.T) {
	s := Spec{
		Name:   "x",
		Boards: []string{"sume", "10g"},
		BERs:   []float64{0, 1e-7},
		Params: []Axis{
			{Name: "frame", Values: []string{"64", "1518"}},
			{Name: "mode", Values: []string{"a", "b"}},
		},
	}
	cells, err := s.Expand("")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"x/board=sume/ber=0/frame=64/mode=a",
		"x/board=sume/ber=0/frame=64/mode=b",
		"x/board=sume/ber=0/frame=1518/mode=a",
		"x/board=sume/ber=0/frame=1518/mode=b",
		"x/board=sume/ber=1e-07/frame=64/mode=a",
		"x/board=sume/ber=1e-07/frame=64/mode=b",
		"x/board=sume/ber=1e-07/frame=1518/mode=a",
		"x/board=sume/ber=1e-07/frame=1518/mode=b",
		"x/board=10g/ber=0/frame=64/mode=a",
		"x/board=10g/ber=0/frame=64/mode=b",
		"x/board=10g/ber=0/frame=1518/mode=a",
		"x/board=10g/ber=0/frame=1518/mode=b",
		"x/board=10g/ber=1e-07/frame=64/mode=a",
		"x/board=10g/ber=1e-07/frame=64/mode=b",
		"x/board=10g/ber=1e-07/frame=1518/mode=a",
		"x/board=10g/ber=1e-07/frame=1518/mode=b",
	}
	if len(cells) != len(want) {
		t.Fatalf("expanded %d cells, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		if c.Key != want[i] {
			t.Errorf("cell %d: key %q, want %q", i, c.Key, want[i])
		}
	}
	// Accessors parse the axis values back.
	if cells[2].Int("frame") != 1518 || cells[2].Str("mode") != "a" {
		t.Errorf("param accessors broken: %+v", cells[2].Param)
	}
	if cells[4].BER != 1e-7 || cells[4].Board != "sume" {
		t.Errorf("first-class axes broken: %+v", cells[4])
	}
}

func TestExpandValidation(t *testing.T) {
	cases := []Spec{
		{},                                      // no name
		{Name: "x", Boards: []string{"nope"}},   // unknown board
		{Name: "x", Projects: []string{"nope"}}, // unknown project
		{Name: "x", Seeds: []uint64{0}},         // reserved seed
		{Name: "x", Params: []Axis{{Name: "", Values: []string{"a"}}}}, // unnamed axis
		{Name: "x", Params: []Axis{{Name: "p"}}},                       // empty axis
	}
	for i, s := range cases {
		if _, err := s.Expand(""); err == nil {
			t.Errorf("case %d: invalid spec %+v accepted", i, s)
		}
	}
}

func TestMatches(t *testing.T) {
	cases := []struct {
		key, inc, exc string
		want          bool
	}{
		{"T4/mesh/frame=64", "", "", true},
		{"T4/mesh/frame=64", "T4", "", true},
		{"T4/mesh/frame=64", "T5", "", false},
		{"T4/mesh/frame=64", "T4,T5", "", true},
		{"T4/mesh/frame=64", "T4 !mesh", "", false},
		{"T4/mesh/frame=64", "T4 -mesh", "", false},
		{"T4/mesh/frame=64", "", "frame=64", false},
		{"T4/latency/frame=64", "T4", "mesh", true},
	}
	for _, c := range cases {
		if got := Matches(c.key, c.inc, c.exc); got != c.want {
			t.Errorf("Matches(%q, %q, %q) = %v, want %v", c.key, c.inc, c.exc, got, c.want)
		}
	}
}

func TestSeedForKey(t *testing.T) {
	if SeedForKey(0, "a") == SeedForKey(0, "b") {
		t.Error("different keys collide")
	}
	if SeedForKey(0, "a") == SeedForKey(1, "a") {
		t.Error("base seed ignored")
	}
	if SeedForKey(0, "a") != SeedForKey(0, "a") {
		t.Error("not a pure function")
	}
	if SeedForKey(0, "") == 0 {
		t.Error("zero seed derived")
	}
}

// TestDigestsInvariantAcrossWorkersAndFilters is the sweep contract:
// the same matrix produces byte-identical per-cell digests at any
// worker count, and a filtered run reproduces exactly the digests of
// the matching cells from the full run (seeds derive from keys, never
// from batch position).
func TestDigestsInvariantAcrossWorkersAndFilters(t *testing.T) {
	groups := []Group{matrixGroup(40)}
	run := func(workers int, filter string) *Results {
		rs, err := RunGroups(context.Background(), &Runner{Workers: workers}, groups, filter)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range rs.Failed() {
			t.Fatalf("cell %s failed: %s", f.Cell.Key, f.Err)
		}
		return rs
	}
	full1 := run(1, "")
	full8 := run(8, "")
	if len(full1.Cells) != 8 {
		t.Fatalf("matrix expanded to %d cells, want 8", len(full1.Cells))
	}
	for i := range full1.Cells {
		if full1.Cells[i].Digest != full8.Cells[i].Digest {
			t.Errorf("cell %s diverges across worker counts", full1.Cells[i].Cell.Key)
		}
	}

	filtered := run(4, "wl=min")
	if len(filtered.Cells) == 0 || len(filtered.Cells) == len(full1.Cells) {
		t.Fatalf("filter matched %d of %d cells", len(filtered.Cells), len(full1.Cells))
	}
	for _, fc := range filtered.Cells {
		want := full1.Get(fc.Cell.Key)
		if want == nil {
			t.Fatalf("filtered cell %s missing from full run", fc.Cell.Key)
		}
		if fc.Digest != want.Digest {
			t.Errorf("cell %s: filtered digest %s != full-run digest %s",
				fc.Cell.Key, fc.Digest, want.Digest)
		}
	}
}

// TestBERAndSeedMoveResults guards against vacuous determinism: the
// BER axis and the base seed must actually change measured results.
func TestBERAndSeedMoveResults(t *testing.T) {
	groups := []Group{matrixGroup(40)}
	rs, err := RunGroups(context.Background(), &Runner{Workers: 4}, groups, "")
	if err != nil {
		t.Fatal(err)
	}
	clean := rs.Get("m/board=sume/project=reference_switch/wl=imix/ber=0/seed=1")
	noisy := rs.Get("m/board=sume/project=reference_switch/wl=imix/ber=1e-05/seed=1")
	if clean == nil || noisy == nil {
		for _, c := range rs.Cells {
			t.Log(c.Cell.Key)
		}
		t.Fatal("expected cells missing")
	}
	if clean.V("fcs_errors") != 0 {
		t.Errorf("clean cell has %v FCS errors", clean.V("fcs_errors"))
	}
	if noisy.V("fcs_errors") == 0 {
		t.Error("BER cell saw no FCS errors — error injection not wired through the sweep")
	}

	// Derived-seed cells must move with the runner's base seed.
	noSeedGroup := Group{
		Spec: Spec{
			Name:      "d",
			Projects:  []string{"reference_iotest"},
			Workloads: []Workload{{Name: "imix"}},
			BERs:      []float64{1e-6},
			WindowUS:  40,
		},
		Measure: GenericMeasure,
	}
	a, err := RunGroups(context.Background(), &Runner{Workers: 2, BaseSeed: 1}, []Group{noSeedGroup}, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGroups(context.Background(), &Runner{Workers: 2, BaseSeed: 2}, []Group{noSeedGroup}, "")
	if err != nil {
		t.Fatal(err)
	}
	if a.Cells[0].Digest == b.Cells[0].Digest {
		t.Error("base seed change did not move a derived-seed cell")
	}
	if a.Cells[0].Seed == b.Cells[0].Seed {
		t.Error("derived seeds identical across base seeds")
	}
}

// TestErrorCellsAreRecorded: a failing measure is a digested result,
// not a batch failure.
func TestErrorCellsAreRecorded(t *testing.T) {
	g := Group{
		Spec: Spec{Name: "e", NoDevice: true,
			Params: []Axis{{Name: "i", Values: []string{"0", "1"}}}},
		Measure: func(c *Ctx, cell Cell) (Outcome, error) {
			if cell.Int("i") == 1 {
				return Outcome{}, fmt.Errorf("deliberate")
			}
			var o Outcome
			o.Set("ok", 1)
			return o, nil
		},
	}
	rs, err := RunGroups(context.Background(), &Runner{Workers: 2}, []Group{g}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Failed()) != 1 {
		t.Fatalf("want 1 failed cell, got %d", len(rs.Failed()))
	}
	bad := rs.Get("e/i=1")
	if bad == nil || !strings.Contains(bad.Err, "deliberate") {
		t.Fatalf("error not recorded: %+v", bad)
	}
	if bad.Digest == "" || bad.Digest == rs.Get("e/i=0").Digest {
		t.Error("failed cell needs its own digest")
	}
	defer func() {
		if recover() == nil {
			t.Error("V on failed cell did not panic")
		}
	}()
	bad.V("ok")
}

func TestConfigAndGoldenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "t.sweep")
	writeFile(t, cfgPath, `{
	  "name": "t",
	  "scenarios": [{
	    "name": "s",
	    "projects": ["reference_iotest"],
	    "workloads": [{"name": "min", "sizes": [{"bytes": 60, "weight": 1}]}],
	    "seeds": [1],
	    "window_us": 20
	  }]
	}`)
	cfg, err := LoadConfig(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	groups := cfg.ScenarioGroups()
	rs, err := RunGroups(context.Background(), &Runner{Workers: 2}, groups, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Failed()) > 0 {
		t.Fatalf("failures: %+v", rs.Failed())
	}

	gPath := filepath.Join(dir, "golden.json")
	if err := WriteGolden(gPath, NewGolden("test", 0, rs)); err != nil {
		t.Fatal(err)
	}
	g, err := ReadGolden(gPath)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := DiffGolden(g, rs, false); len(diffs) != 0 {
		t.Fatalf("round trip diffs: %v", diffs)
	}
	// Mutate one digest: the diff must say so.
	for k, c := range g.Cells {
		c.Digest = "deadbeef"
		g.Cells[k] = c
		break
	}
	if diffs := DiffGolden(g, rs, false); len(diffs) != 1 {
		t.Fatalf("want 1 diff after mutation, got %v", diffs)
	}

	// Bad configs are rejected.
	for i, bad := range []string{
		`{}`,
		`{"name": "x"}`,
		`{"name": "x", "scenarios": [{"name": "s"}]}`,
		`{"name": "x", "scenarios": [{"name": "s", "projects": ["nope"]}]}`,
		`{"name": "x", "scenarios": [{"name": "s", "projects": ["reference_nic"]},
		                             {"name": "s", "projects": ["reference_nic"]}]}`,
	} {
		p := filepath.Join(dir, fmt.Sprintf("bad%d.sweep", i))
		writeFile(t, p, bad)
		if _, err := LoadConfig(p); err == nil {
			t.Errorf("bad config %d accepted: %s", i, bad)
		}
	}
}

// stride returns the sub-plan of every n-th cell starting at i: n
// disjoint subsets that together cover the plan.
func stride(p *Plan, i, n int) *Plan {
	return p.Subset(func(key string) bool {
		j, _ := p.Lookup(key)
		return j%n == i
	})
}

// TestPlanShardPartition: disjoint Subset calls that cover the key space
// shard the plan — every cell lands in exactly one sub-plan, and a
// sub-plan preserves expansion order, the base seed and its own key
// index.
func TestPlanShardPartition(t *testing.T) {
	groups := []Group{matrixGroup(40)}
	p, err := PlanGroups(groups, "", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cells) != 8 {
		t.Fatalf("plan has %d cells, want 8", len(p.Cells))
	}
	for _, n := range []int{1, 2, 3, 5} {
		counts := map[string]int{}
		for i := 0; i < n; i++ {
			sub := stride(p, i, n)
			if sub.BaseSeed != p.BaseSeed {
				t.Errorf("n=%d: sub-plan seed %d, plan seed %d", n, sub.BaseSeed, p.BaseSeed)
			}
			last := -1
			for k, c := range sub.Cells {
				j, _ := p.Lookup(c.Key)
				if j%n != i {
					t.Errorf("n=%d: cell %s landed in subset %d, belongs to %d", n, c.Key, i, j%n)
				}
				if j < last {
					t.Fatalf("n=%d: subset broke expansion order at %s", n, c.Key)
				}
				last = j
				if got, ok := sub.Lookup(c.Key); !ok || got != k {
					t.Errorf("n=%d: sub-plan index maps %s to %d (found %v), want %d", n, c.Key, got, ok, k)
				}
				counts[c.Key]++
			}
		}
		if len(counts) != len(p.Cells) {
			t.Errorf("n=%d: subsets cover %d cells, plan has %d", n, len(counts), len(p.Cells))
		}
		for k, c := range counts {
			if c != 1 {
				t.Errorf("n=%d: cell %s appears in %d subsets", n, k, c)
			}
		}
	}
	if none := p.Subset(func(string) bool { return false }); len(none.Cells) != 0 {
		t.Errorf("empty subset has %d cells", len(none.Cells))
	}
}

// TestMergerRoundTrip: executing a plan's subsets separately and merging
// the flat records reproduces the single-run result set digest for
// digest — the in-process model of the multi-process fleet.
func TestMergerRoundTrip(t *testing.T) {
	groups := []Group{matrixGroup(40)}
	p, err := PlanGroups(groups, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunGroups(context.Background(), &Runner{Workers: 4}, groups, "")
	if err != nil {
		t.Fatal(err)
	}

	m := p.Merger()
	const n = 3
	for i := 0; i < n; i++ {
		ch, _, err := stride(p, i, n).Execute(context.Background(), &Runner{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for cr := range ch {
			if _, err := m.Place(cr.Record()); err != nil {
				t.Fatalf("place %s: %v", cr.Cell.Key, err)
			}
		}
	}
	if missing := m.Missing(); len(missing) > 0 {
		t.Fatalf("cells missing after merge: %v", missing)
	}
	merged, err := m.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Cells) != len(full.Cells) {
		t.Fatalf("merged %d cells, full run has %d", len(merged.Cells), len(full.Cells))
	}
	for i := range merged.Cells {
		if merged.Cells[i].Cell.Key != full.Cells[i].Cell.Key {
			t.Fatalf("cell %d out of expansion order: %s vs %s",
				i, merged.Cells[i].Cell.Key, full.Cells[i].Cell.Key)
		}
		if merged.Cells[i].Digest != full.Cells[i].Digest {
			t.Errorf("cell %s: merged digest %s != single-run digest %s",
				merged.Cells[i].Cell.Key, merged.Cells[i].Digest, full.Cells[i].Digest)
		}
	}
	if merged.Get(full.Cells[0].Cell.Key) == nil {
		t.Error("merged results not indexed by key")
	}
}

// TestMergerRejects: unknown keys, duplicates, tampered digests, and
// incomplete merges all fail loudly.
func TestMergerRejects(t *testing.T) {
	p, err := PlanGroups([]Group{matrixGroup(40)}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, _, err := p.Execute(context.Background(), &Runner{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var recs []CellRecord
	for cr := range ch {
		recs = append(recs, cr.Record())
	}

	m := p.Merger()
	if _, err := m.Place(CellRecord{Key: "nope", Digest: "x"}); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := m.Place(recs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Place(recs[0]); err == nil {
		t.Error("duplicate record accepted")
	}
	bad := recs[1]
	bad.Events++ // content no longer matches the transmitted digest
	if _, err := m.Place(bad); err == nil {
		t.Error("tampered record accepted")
	}
	if _, err := m.Results(); err == nil {
		t.Error("incomplete merge sealed without error")
	}
	if missing := m.Missing(); len(missing) != len(recs)-1 {
		t.Errorf("missing reports %d cells, want %d", len(missing), len(recs)-1)
	}

	// A record of another base seed, its digest true to its content — a
	// seed-5 run resumed into a seed-0 one — is refused, as a recoverable
	// error and not ErrDiverged, whether its cell is open or filled.
	g := matrixGroup(40)
	g.Spec.Seeds = nil
	var seeded [2]*Plan
	for j, base := range []uint64{0, 5} {
		if seeded[j], err = PlanGroups([]Group{g}, "", base); err != nil {
			t.Fatal(err)
		}
	}
	m = seeded[0].Merger()
	for _, i := range []int{0, 1} {
		foreign := seeded[1].runCell(context.Background(), i, nil).Record()
		if i == 1 {
			if _, err := m.Place(seeded[0].runCell(context.Background(), i, nil).Record()); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := m.Adopt(foreign); err == nil || errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "seed") {
			t.Errorf("cell %d: a seed-5 record adopted into a seed-0 plan: %v", i, err)
		}
	}
	if m.Placed() != 1 {
		t.Errorf("%d cells placed, want 1", m.Placed())
	}
}

// TestRunCellMatchesBatch: a cell run alone through RunCell is
// byte-identical (same digest, seed, events) to the same cell inside a
// full batch execution — the invariant the networked worker's per-cell
// pull model stands on. The device hook sees a fresh device without
// changing the result, and unknown keys are rejected.
func TestRunCellMatchesBatch(t *testing.T) {
	groups := []Group{matrixGroup(40)}
	p, err := PlanGroups(groups, "", 7)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunGroups(context.Background(), &Runner{Workers: 4}, groups, "")
	if err != nil {
		t.Fatal(err)
	}
	if full.Cells[0].Digest == "" {
		t.Fatal("batch run produced no digests")
	}
	// RunGroups uses BaseSeed 0; re-run the batch at seed 7 to compare.
	ch, rs, err := p.Execute(context.Background(), &Runner{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for range ch {
	}

	hooked := 0
	for _, want := range rs.Cells {
		got, err := p.RunCell(context.Background(), want.Cell.Key, 0, 0, "", func(*netfpga.Device) { hooked++ })
		if err != nil {
			t.Fatalf("RunCell %s: %v", want.Cell.Key, err)
		}
		if got.Digest != want.Digest {
			t.Errorf("cell %s: solo digest %s != batch digest %s", want.Cell.Key, got.Digest, want.Digest)
		}
		if got.Seed != want.Seed || got.Events != want.Events {
			t.Errorf("cell %s: solo (seed=%d events=%d) != batch (seed=%d events=%d)",
				want.Cell.Key, got.Seed, got.Events, want.Seed, want.Events)
		}
	}
	if hooked != len(rs.Cells) {
		t.Errorf("device hook ran %d times for %d cells", hooked, len(rs.Cells))
	}
	if _, err := p.RunCell(context.Background(), "no/such=cell", 0, 0, "", nil); err == nil {
		t.Error("RunCell accepted a key outside the plan")
	}
	if i, ok := p.Lookup(rs.Cells[0].Cell.Key); !ok || i != 0 {
		t.Errorf("Lookup(%s) = (%d, %v), want (0, true)", rs.Cells[0].Cell.Key, i, ok)
	}
}

// TestMergerAdopt: Adopt tolerates the exact duplicate a recovering
// fleet produces (requeued cell racing its dead sender's in-flight
// result) but still rejects diverging completions and everything Place
// rejects, a duplicate corrupted in transit included.
func TestMergerAdopt(t *testing.T) {
	p, err := PlanGroups([]Group{matrixGroup(40)}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, _, err := p.Execute(context.Background(), &Runner{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var recs []CellRecord
	for cr := range ch {
		recs = append(recs, cr.Record())
	}

	m := p.Merger()
	cr, dup, err := m.Adopt(recs[0])
	if err != nil || dup {
		t.Fatalf("first adopt: dup=%v err=%v", dup, err)
	}
	if !m.Filled(recs[0].Key) || m.Placed() != 1 {
		t.Fatalf("after first adopt: filled=%v placed=%d", m.Filled(recs[0].Key), m.Placed())
	}
	// The benign duplicate: identical digest, no error, no state change.
	again, dup, err := m.Adopt(recs[0])
	if err != nil || !dup {
		t.Fatalf("identical duplicate: dup=%v err=%v", dup, err)
	}
	if again.Digest != cr.Digest || m.Placed() != 1 {
		t.Fatalf("duplicate adopt changed state: digest %s vs %s, placed=%d", again.Digest, cr.Digest, m.Placed())
	}
	// A duplicate corrupted in transit is a corrupt record, not a
	// second answer.
	div := recs[0]
	div.Digest = "0000000000000000"
	if _, _, err := m.Adopt(div); err == nil || errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "does not survive the wire") {
		t.Errorf("corrupted duplicate: err=%v, want a digest that does not survive the wire", err)
	}
	// An intact completion that disagrees is a determinism violation.
	div.Events++
	i, _ := p.Lookup(div.Key)
	twin := CellResult{Cell: p.Cells[i], Seed: div.Seed, Values: div.Values, Labels: div.Labels,
		SimTime: netfpga.Time(div.SimPS), Events: div.Events, Err: div.Err}
	div.Digest = twin.digest()
	if _, _, err := m.Adopt(div); !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "diverging") {
		t.Errorf("diverging duplicate: err=%v, want diverging-digest error", err)
	}
	// Adopt still enforces Place's integrity checks on fresh cells.
	bad := recs[1]
	bad.Events++
	if _, _, err := m.Adopt(bad); err == nil {
		t.Error("tampered fresh record adopted")
	}
	if _, _, err := m.Adopt(CellRecord{Key: "nope", Digest: "x"}); err == nil {
		t.Error("unknown key adopted")
	}
	for _, r := range recs[1:] {
		if _, _, err := m.Adopt(r); err != nil {
			t.Fatalf("adopt %s: %v", r.Key, err)
		}
	}
	if _, err := m.Results(); err != nil {
		t.Fatalf("complete merge rejected: %v", err)
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{100, 10, 50, 30, 20, 90, 60, 40, 80, 70} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 10}, {10, 10}, {50, 50}, {90, 90}, {95, 100}, {99, 100}, {100, 100},
	}
	for _, c := range cases {
		if got := Percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single-sample p99 = %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("empty sample set did not panic")
		}
	}()
	Percentile(nil, 50)
}

// TestLatencyMeasure: the built-in percentile measure produces ordered,
// deterministic distributions; background load actually spreads the
// tail, and an idle switch shows a flat one.
func TestLatencyMeasure(t *testing.T) {
	g := Group{
		Spec: Spec{
			Name:     "lat",
			Projects: []string{"reference_switch"},
			Params: []Axis{
				{Name: "frame", Values: []string{"64", "512"}},
				{Name: "bg", Values: []string{"0", "6"}},
			},
			WindowUS: 100,
		},
		Measure: LatencyMeasure,
	}
	run := func() *Results {
		rs, err := RunGroups(context.Background(), &Runner{Workers: 4}, []Group{g}, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range rs.Failed() {
			t.Fatalf("cell %s failed: %s", f.Cell.Key, f.Err)
		}
		return rs
	}
	rs := run()
	for _, c := range rs.Cells {
		p50, p95, p99 := c.V("latency_p50_ps"), c.V("latency_p95_ps"), c.V("latency_p99_ps")
		if !(p50 <= p95 && p95 <= p99 && p99 <= c.V("latency_max_ps")) {
			t.Errorf("%s: percentiles out of order: p50=%g p95=%g p99=%g max=%g",
				c.Cell.Key, p50, p95, p99, c.V("latency_max_ps"))
		}
		if c.V("probes") != 64 {
			t.Errorf("%s: %g probes, want default 64", c.Cell.Key, c.V("probes"))
		}
		if p50 <= 0 {
			t.Errorf("%s: nonpositive p50 %g", c.Cell.Key, p50)
		}
	}
	// An idle switch serves every probe near-identically (sub-cycle
	// pacing phase is the only jitter); under background flood the
	// tail must separate far more.
	idle := rs.Get("lat/project=reference_switch/frame=64/bg=0")
	loaded := rs.Get("lat/project=reference_switch/frame=64/bg=6")
	if idle == nil || loaded == nil {
		t.Fatalf("expected cells missing; have %v", func() (keys []string) {
			for _, c := range rs.Cells {
				keys = append(keys, c.Cell.Key)
			}
			return
		}())
	}
	idleSpread := idle.V("latency_p99_ps") - idle.V("latency_p50_ps")
	loadedSpread := loaded.V("latency_p99_ps") - loaded.V("latency_p50_ps")
	if loadedSpread <= idleSpread {
		t.Errorf("background load did not spread the tail: idle p99-p50=%gps, loaded=%gps",
			idleSpread, loadedSpread)
	}
	if loaded.V("latency_p50_ps") < idle.V("latency_p50_ps") {
		t.Errorf("loaded median %g below idle median %g",
			loaded.V("latency_p50_ps"), idle.V("latency_p50_ps"))
	}
	// Bit-reproducible: same digests on a second run.
	again := run()
	for i := range rs.Cells {
		if rs.Cells[i].Digest != again.Cells[i].Digest {
			t.Errorf("cell %s latency digest not reproducible", rs.Cells[i].Cell.Key)
		}
	}
}

func TestBoardRegistry(t *testing.T) {
	for _, name := range BoardNames() {
		b, ok := Board(name)
		if !ok || b.Ports == 0 {
			t.Errorf("board %q broken", name)
		}
	}
	if _, ok := Board("nope"); ok {
		t.Error("unknown board resolved")
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
