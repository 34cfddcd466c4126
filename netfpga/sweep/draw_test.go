package sweep

import (
	"context"
	"flag"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/netfpga"
)

// drawInline never draws ahead; drawSmall draws ahead from 64
// intervals, in chunks of 5 intervals or 2 KiB of frames, so a short
// window crosses many chunk and arena boundaries.
var (
	drawInline = drawSchedule{aheadMin: math.MaxInt, chunk: aheadChunk, arena: aheadArena}
	drawSmall  = drawSchedule{aheadMin: 64, chunk: 5, arena: 2 << 10}
)

func scheduled(s drawSchedule) Measure {
	return func(c *Ctx, cell Cell) (Outcome, error) { return genericMeasure(c, cell, s) }
}

// drawMatrix runs TestDrawAheadMatchesInline at every seed of its
// matrix; tier-1 runs seed 1 only. CI's hybrid job passes it.
var drawMatrix = flag.Bool("draw-matrix", false, "run TestDrawAheadMatchesInline at seeds 1, 7 and 99")

// drawGroups are SUME switch cells of the given window: hybrid over
// background shares 0, 6/8 and 255/256, and full fidelity, where the
// share changes nothing, each at the given seeds.
func drawGroups(windowUS int, m Measure, seeds ...uint64) []Group {
	spec := func(fid string, wls ...Workload) Group {
		return Group{Measure: m, Spec: Spec{
			Name: "draw-" + fid, Boards: []string{"sume"}, Projects: []string{"reference_switch"},
			Workloads: wls, Seeds: seeds, Fidelities: []string{fid}, WindowUS: windowUS,
		}}
	}
	bg255 := Workload{Name: "bg255of256", Flows: 256, Background: 255}
	return []Group{
		spec("hybrid", Workload{Name: "bg0of8", Flows: 8}, Workload{Name: "bg6of8", Flows: 8, Background: 6}, bg255),
		spec("full", bg255),
	}
}

// TestDrawAheadMatchesInline: a cell that draws its traffic ahead on a
// producer goroutine digests, and executes the same number of engine
// events, exactly as the same cell drawn inline, one interval before
// each is applied. The shipped schedule runs windows just below
// aheadMin intervals, at it, and off a chunk multiple with a partial
// last interval; drawSmall runs a short window across many chunks.
// Tier-1 runs each fidelity mix at one seed; -draw-matrix adds seeds 7
// and 99.
func TestDrawAheadMatchesInline(t *testing.T) {
	seeds := []uint64{1}
	if *drawMatrix {
		seeds = append(seeds, 7, 99)
	}
	for _, tc := range []struct {
		windowUS int
		s        drawSchedule
	}{
		{10*aheadMin - 10, drawAhead},
		{10 * aheadMin, drawAhead},
		{10*(aheadMin+37) + 5, drawAhead},
		{10*drawSmall.aheadMin + 375, drawSmall},
	} {
		run := func(s drawSchedule) *Results {
			rs, err := RunGroups(context.Background(), &Runner{Workers: 2}, drawGroups(tc.windowUS, scheduled(s), seeds...), "")
			if err != nil {
				t.Fatal(err)
			}
			return rs
		}
		inline := run(drawInline)
		for i, cr := range run(tc.s).Cells {
			want := inline.Cells[i]
			if cr.Err != "" || want.Err != "" {
				t.Fatalf("%s: ahead err %q, inline err %q", cr.Cell.Key, cr.Err, want.Err)
			}
			if cr.Digest != want.Digest || cr.Events != want.Events {
				t.Errorf("window %d us, schedule %+v, %s: digest %s events %d, inline %s events %d",
					tc.windowUS, tc.s, cr.Cell.Key, cr.Digest, cr.Events, want.Digest, want.Events)
			}
			if cr.V("sent") == 0 {
				t.Errorf("%s sent nothing", cr.Cell.Key)
			}
		}
	}
}

// waitGoroutines fails t unless the goroutine count falls back to n
// within a second: a joined goroutine may still be on its way out when
// the join returns.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the cell", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// oneCell plans a single hybrid bg255of256 cell of the given window
// under measure m.
func oneCell(t *testing.T, windowUS int, m Measure) (*Plan, string) {
	t.Helper()
	spec := Spec{
		Name: "one", Boards: []string{"sume"}, Projects: []string{"reference_switch"},
		Workloads:  []Workload{{Name: "bg255of256", Flows: 256, Background: 255}},
		Fidelities: []string{"hybrid"}, WindowUS: windowUS,
	}
	plan, err := PlanGroups([]Group{{Spec: spec, Measure: m}}, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	return plan, plan.Cells[0].Key
}

// TestDrawAheadPanicIsCellError: a panic in the producer goroutine is
// the cell's error, word for word the error the inline schedule
// records, and leaves no goroutine behind.
func TestDrawAheadPanicIsCellError(t *testing.T) {
	errs := map[string]string{}
	for name, s := range map[string]drawSchedule{"inline": drawInline, "ahead": drawAhead} {
		base := runtime.NumGoroutine()
		plan, key := oneCell(t, 10*aheadMin, func(c *Ctx, cell Cell) (Outcome, error) {
			c.Rand = nil // the first tap draw dereferences it
			return genericMeasure(c, cell, s)
		})
		cr, err := plan.RunCell(context.Background(), key, 0, 0, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(cr.Err, "panicked") || !strings.Contains(cr.Err, "nil pointer") {
			t.Errorf("%s: cell error %q, want the producer's nil-pointer panic", name, cr.Err)
		}
		errs[name] = cr.Err
		waitGoroutines(t, base)
	}
	if errs["inline"] != errs["ahead"] {
		t.Errorf("ahead error %q, inline error %q", errs["ahead"], errs["inline"])
	}
}

// TestDrawAheadCancelJoinsProducer: a batch canceled mid-window stops
// the cell at the next interval, and the cell returns with its producer
// gone, so the next cell, which reuses the plan's generator and drawer,
// digests as on a fresh plan.
func TestDrawAheadCancelJoinsProducer(t *testing.T) {
	const windowUS = 20000
	cancelAt := 300 * netfpga.Microsecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	measure := func(c *Ctx, cell Cell) (Outcome, error) {
		c.Dev.Sim.At(cancelAt, cancel)
		return GenericMeasure(c, cell)
	}
	plan, key := oneCell(t, windowUS, measure)
	base := runtime.NumGoroutine()
	cr, err := plan.RunCell(ctx, key, 0, 0, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Err != "" {
		t.Fatalf("canceled cell: %s", cr.Err)
	}
	if cr.SimTime < cancelAt || cr.SimTime >= windowUS*netfpga.Microsecond {
		t.Errorf("cell ran to %v, want it stopped at the interval after the cancel at %v", cr.SimTime, cancelAt)
	}
	waitGoroutines(t, base)

	again, err := plan.RunCell(context.Background(), key, 0, 0, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := oneCell(t, windowUS, measure)
	want, err := fresh.RunCell(context.Background(), key, 0, 0, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != want.Digest || again.Events != want.Events {
		t.Errorf("the cell after the cancel digests %s with %d events, on a fresh plan %s with %d",
			again.Digest, again.Events, want.Digest, want.Events)
	}
}
