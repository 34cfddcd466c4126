package sweep

import (
	"context"
	"flag"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/netfpga"
	"repro/netfpga/workload"
)

// drawInline never draws ahead; drawRamp draws every cell ahead on the
// shipped chunk sizes; drawSmall draws ahead from 64 intervals, in
// chunks of 1, 2, then 5 intervals or 2 KiB of frames, so a short
// window crosses many chunk and arena boundaries; drawJumbo cuts a
// chunk of jumboWorkload's frames short at 64 KiB in the middle of its
// ramp (TestDrawAheadChunkSizes pins where).
var (
	drawInline = drawSchedule{aheadMin: math.MaxInt, first: aheadFirst, chunk: aheadChunk, arena: aheadArena}
	drawRamp   = drawSchedule{aheadMin: 1, first: aheadFirst, chunk: aheadChunk, arena: aheadArena}
	drawSmall  = drawSchedule{aheadMin: 64, first: 1, chunk: 5, arena: 2 << 10}
	drawJumbo  = drawSchedule{aheadMin: 1, first: 1, chunk: 64, arena: 64 << 10}
)

// jumboWorkload is one 9000-byte frame in 16 among 60-byte ones, over
// more (flow, size) pairs than a generator keeps frames for, so its
// chunks hold copies in their arenas.
var jumboWorkload = Workload{Name: "jumbo1of16", Flows: 8193,
	Sizes: []workload.SizeWeight{{Bytes: 9000, Weight: 1}, {Bytes: 60, Weight: 15}}}

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
	bg255 := Workload{Name: "bg255of256", Flows: 256, Background: 255}
	return []Group{
		drawGroup(windowUS, m, seeds, "hybrid", Workload{Name: "bg0of8", Flows: 8}, Workload{Name: "bg6of8", Flows: 8, Background: 6}, bg255),
		drawGroup(windowUS, m, seeds, "full", bg255),
	}
}

// jumboGroups is one full-fidelity SUME switch cell of jumboWorkload
// at each of the given seeds.
func jumboGroups(windowUS int, m Measure, seeds ...uint64) []Group {
	return []Group{drawGroup(windowUS, m, seeds, "full", jumboWorkload)}
}

// drawGroup is a group of SUME switch cells of the given window,
// fidelity and workloads, each at the given seeds.
func drawGroup(windowUS int, m Measure, seeds []uint64, fid string, wls ...Workload) Group {
	return Group{Measure: m, Spec: Spec{
		Name: "draw-" + fid, Boards: []string{"sume"}, Projects: []string{"reference_switch"},
		Workloads: wls, Seeds: seeds, Fidelities: []string{fid}, WindowUS: windowUS,
	}}
}

// rampEnds returns the interval each of s's chunks ends at while the
// chunks grow, and the end of the first chunk at s.chunk, for a cell
// whose chunks the arena never cuts: 16, 48, 112, ... on the shipped
// sizes.
func rampEnds(s drawSchedule) []int {
	var ends []int
	end := 0
	for size := s.first; ; size = s.grow(size) {
		end += size
		ends = append(ends, end)
		if size == s.chunk {
			return ends
		}
	}
}

// TestDrawAheadMatchesInline: a cell that draws its traffic ahead on a
// producer goroutine digests, and executes the same number of engine
// events, exactly as the same cell drawn inline, one interval before
// each is applied. The shipped schedule runs windows just below
// aheadMin intervals, at it, and with a partial last interval; drawRamp
// runs windows that end one interval before, at and one after each
// chunk boundary of the ramp and of the first full chunk; drawSmall
// runs a window of over 70 chunks, past where a doubling that does not
// saturate wraps; drawJumbo runs full-fidelity jumbo frames whose arena
// cuts chunks in the middle of the ramp. A window that has not finished
// within a minute fails the test rather than hanging it. Tier-1 runs
// each fidelity mix at one seed; -draw-matrix adds seeds 7 and 99.
func TestDrawAheadMatchesInline(t *testing.T) {
	seeds := []uint64{1}
	if *drawMatrix {
		seeds = append(seeds, 7, 99)
	}
	type window struct {
		us     int
		s      drawSchedule
		groups func(int, Measure, ...uint64) []Group
	}
	windows := []window{
		{10*aheadMin - 10, drawAhead, drawGroups},
		{10 * aheadMin, drawAhead, drawGroups},
		{10*(aheadMin+37) + 5, drawAhead, drawGroups},
		{10*400 + 5, drawSmall, drawGroups},
		{10*200 + 5, drawJumbo, jumboGroups},
	}
	for _, end := range rampEnds(drawRamp) {
		for _, n := range []int{end - 1, end, end + 1} {
			windows = append(windows, window{10 * n, drawRamp, drawGroups})
		}
	}
	for _, w := range windows {
		run := func(s drawSchedule) *Results {
			done := make(chan *Results, 1)
			go func() {
				rs, err := RunGroups(context.Background(), &Runner{Workers: 2}, w.groups(w.us, scheduled(s), seeds...), "")
				if err != nil {
					t.Error(err)
				}
				done <- rs
			}()
			select {
			case rs := <-done:
				if rs == nil {
					t.FailNow()
				}
				return rs
			case <-time.After(time.Minute):
				t.Fatalf("window %d us, schedule %+v: not finished after a minute", w.us, s)
				return nil
			}
		}
		inline := run(drawInline)
		for i, cr := range run(w.s).Cells {
			want := inline.Cells[i]
			if cr.Err != "" || want.Err != "" {
				t.Fatalf("%s: ahead err %q, inline err %q", cr.Cell.Key, cr.Err, want.Err)
			}
			if cr.Digest != want.Digest || cr.Events != want.Events {
				t.Errorf("window %d us, schedule %+v, %s: digest %s events %d, inline %s events %d",
					w.us, w.s, cr.Cell.Key, cr.Digest, cr.Events, want.Digest, want.Events)
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

// TestDrawAheadCancelJoinsProducer: a batch canceled mid-window, in the
// first 16-interval chunk or a later one, stops the cell at the next
// interval, and the cell returns with its producer gone, so the next
// cell, which reuses the plan's generator and drawer, digests as on a
// fresh plan.
func TestDrawAheadCancelJoinsProducer(t *testing.T) {
	const windowUS = 20000
	for _, cancelAt := range []netfpga.Time{50 * netfpga.Microsecond, 300 * netfpga.Microsecond} {
		ctx, cancel := context.WithCancel(context.Background())
		measure := func(c *Ctx, cell Cell) (Outcome, error) {
			c.Dev.Sim.At(cancelAt, cancel)
			return GenericMeasure(c, cell)
		}
		plan, key := oneCell(t, windowUS, measure)
		base := runtime.NumGoroutine()
		cr, err := plan.RunCell(ctx, key, 0, 0, "", nil)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if cr.Err != "" {
			t.Fatalf("cell canceled at %v: %s", cancelAt, cr.Err)
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
			t.Errorf("cancel at %v: the cell after it digests %s with %d events, on a fresh plan %s with %d",
				cancelAt, again.Digest, again.Events, want.Digest, want.Events)
		}
	}
}

// chunkSizes returns the intervals of each chunk that drawer.next hands
// on for a cell of n intervals of wl at seed on a 4-port board, and the
// drawer. An empty chunk fails t: a schedule that stops growing draws
// nothing, forever.
func chunkSizes(t *testing.T, n int, s drawSchedule, wl Workload, hybrid bool, seed uint64) ([]int, *drawer) {
	t.Helper()
	gen, err := workload.New(wl.Config(seed))
	if err != nil {
		t.Fatal(err)
	}
	d := &drawer{rand: sim.NewRand(seed), gen: gen, ports: 4, hybrid: hybrid}
	d.start(n, s)
	defer d.stop()
	var sizes []int
	var ch *drawChunk
	for left := n; left > 0; left -= ch.n {
		if ch = d.next(ch); ch.n == 0 {
			t.Fatalf("chunk %d holds no interval", len(sizes)+1)
		}
		sizes = append(sizes, ch.n)
	}
	return sizes, d
}

// TestDrawAheadChunkSizes pins the chunks drawer.next hands on. The
// shipped schedule draws a 900 000-interval cell (hybrid_bg255's) in
// 884 chunks: 16, 32, ..., 512, then 877 of 1024 and the 944 left (256
// intervals a chunk took 3 516); its generator keeps its frames, so the
// chunks copy none. A full-fidelity IMIX cell whose generator keeps its
// frames holds 16 send records of 32 bytes an interval, so the arena
// bound, not the frames' bytes, stops its ramp at 512 intervals
// (counting the frames stopped it at about 47). A cap of 2 holds the
// doubling at 2 for 75 chunks, past the 63 after which one that does not
// saturate wraps. drawJumbo's arena cuts the 16-interval chunk of
// TestDrawAheadMatchesInline's jumbo cell at 6 intervals of copies, and
// the ramp goes on.
func TestDrawAheadChunkSizes(t *testing.T) {
	bg255 := Workload{Name: "bg255of256", Flows: 256, Background: 255}
	want := []int{16, 32, 64, 128, 256, 512}
	for range 877 {
		want = append(want, 1024)
	}
	want = append(want, 944)
	got, d := chunkSizes(t, 900_000, drawAhead, bg255, true, 1)
	checkChunks(t, "shipped schedule", got, want)
	for i := range d.chunks {
		if n := cap(d.chunks[i].arena); n != 0 {
			t.Errorf("chunk %d copied %d bytes of frames its generator keeps", i, n)
		}
	}

	imix := Workload{Name: "imix", Flows: 8}
	want = []int{16, 32, 64, 128, 256, 512, 512, 512, 512, 512, 512, 432}
	got, d = chunkSizes(t, 4000, drawAhead, imix, false, 1)
	checkChunks(t, "full-fidelity imix", got, want)
	for i := range d.chunks {
		if n := cap(d.chunks[i].arena); n != 0 {
			t.Errorf("imix chunk %d copied %d bytes of frames its generator keeps", i, n)
		}
	}

	capped := drawSchedule{aheadMin: 1, first: 1, chunk: 2, arena: aheadArena}
	want = []int{1}
	for range 74 {
		want = append(want, 2)
	}
	want = append(want, 1)
	got, _ = chunkSizes(t, 150, capped, bg255, true, 1)
	checkChunks(t, "cap 2", got, want)

	got, d = chunkSizes(t, 200, drawJumbo, jumboWorkload, false, 1)
	checkChunks(t, "jumbo frames", got[:6], []int{1, 2, 4, 8, 6, 6})
	for i := range d.chunks {
		if n := cap(d.chunks[i].arena); n < drawJumbo.arena {
			t.Errorf("chunk %d copied at most %d bytes of frames, want a cut at the arena's %d", i, n, drawJumbo.arena)
		}
	}
}

// checkChunks fails t where the chunk sizes got part from want.
func checkChunks(t *testing.T, name string, got, want []int) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("%s: chunk %d holds %d intervals, want %d", name, i, got[i], want[i])
			return
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d chunks, want %d", name, len(got), len(want))
	}
}
