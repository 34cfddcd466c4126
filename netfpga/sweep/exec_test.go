package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/netfpga"
	"repro/netfpga/workload"
)

// switchGroup is eight reference-switch devices, seeded base*100+i,
// each pushing seeded workload traffic for a fixed simulated window,
// stepped the way the sweep measures step: offer a burst, run 10 us,
// until the window ends or the batch is canceled. Every counter of the
// device's snapshot is a value, so the digest covers them all. It is
// the canonical pool unit the determinism tests use.
func switchGroup(name string, base uint64, n int) Group {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = base*100 + uint64(i)
	}
	return Group{
		Spec: Spec{
			Name:     name,
			Projects: []string{"reference_switch"},
			// A small injected bit-error rate makes the per-device RNG
			// seed observable in the results: wrong seeding shows up as
			// different FCS-error counts.
			BERs:  []float64{1e-7},
			Seeds: seeds,
		},
		Measure: switchMeasure,
	}
}

func switchMeasure(c *Ctx, cell Cell) (Outcome, error) {
	gen, err := workload.New(workload.Config{Seed: c.Seed})
	if err != nil {
		return Outcome{}, err
	}
	taps := make([]*netfpga.PortTap, 4)
	for i := range taps {
		taps[i] = c.Dev.Tap(i)
	}
	var o Outcome
	for end := c.Dev.Now() + 200*netfpga.Microsecond; c.Dev.Now() < end && !c.Canceled(); {
		for i := 0; i < 16; i++ {
			if taps[c.Rand.Intn(4)].Send(gen.Next()) {
				o.Set("sent", o.Values["sent"]+1)
			}
		}
		c.Dev.RunFor(10 * netfpga.Microsecond)
	}
	c.Dev.RunUntilIdle(0)
	for _, t := range taps {
		o.Set("rx", o.Values["rx"]+float64(len(t.Received())))
	}
	for k, v := range c.Dev.Snapshot() {
		o.Set(k, float64(v))
	}
	return o, nil
}

// digestAll checks that cells are the n switchGroup cells, in index order
// and without errors, and concatenates their keys and digests.
func digestAll(t *testing.T, cells []CellResult, n int) string {
	t.Helper()
	if len(cells) != n {
		t.Fatalf("got %d results, want %d", len(cells), n)
	}
	var b strings.Builder
	for i, r := range cells {
		if r.Err != "" || r.Index != i {
			t.Fatalf("slot %d holds index %d (%q): %v", i, r.Index, r.Cell.Key, r.Err)
		}
		if len(r.Values) < 3 {
			t.Fatalf("cell %q has no stats snapshot", r.Cell.Key)
		}
		fmt.Fprintf(&b, "%s %s\n", r.Cell.Key, r.Digest)
	}
	return b.String()
}

func runAll(t *testing.T, r *Runner, groups ...Group) []CellResult {
	t.Helper()
	rs, err := RunGroups(context.Background(), r, groups, "")
	if err != nil {
		t.Fatal(err)
	}
	return rs.Cells
}

// TestDeterminismAcrossWorkerCounts is the pool contract: the same
// seeds produce byte-identical per-device results whether the batch
// runs on one worker or eight. The sweep's golden digests stand on this.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	want := digestAll(t, runAll(t, &Runner{Workers: 1}, switchGroup("dev", 42, 8)), 8)
	for _, workers := range []int{4, 8} {
		if got := digestAll(t, runAll(t, &Runner{Workers: workers}, switchGroup("dev", 42, 8)), 8); got != want {
			t.Errorf("workers=%d diverges from workers=1:\n--- 1\n%s--- %d\n%s", workers, want, workers, got)
		}
	}
	// Different seeds must actually change the results (the BER and
	// workload draws depend on them) — otherwise the determinism check
	// above would pass vacuously.
	other := runAll(t, &Runner{Workers: 8}, switchGroup("dev", 43, 8))
	for i, cr := range other {
		if cr.Values["rx"] == 0 {
			t.Errorf("cell %s delivered nothing", cr.Cell.Key)
		}
		if i > 0 && cr.Values["sent"] == other[0].Values["sent"] && cr.Values["rx"] == other[0].Values["rx"] &&
			cr.Events == other[0].Events {
			t.Errorf("cells %s and %s ran identically under different seeds", other[0].Cell.Key, cr.Cell.Key)
		}
	}
}

// TestRunStreamDeterministicAcrossWorkerCounts: re-sorted by cell
// index, what Execute streams on any worker count matches a run on one
// worker. The sweep's streaming progress stands on this.
func TestRunStreamDeterministicAcrossWorkerCounts(t *testing.T) {
	groups := []Group{switchGroup("dev", 42, 8)}
	want := digestAll(t, runAll(t, &Runner{Workers: 1}, groups...), 8)
	for _, workers := range []int{1, 4, 8} {
		ch, _, err := RunStreamGroups(context.Background(), &Runner{Workers: workers}, groups, "")
		if err != nil {
			t.Fatal(err)
		}
		var got []CellResult
		for cr := range ch {
			got = append(got, cr)
		}
		sort.Slice(got, func(i, j int) bool { return got[i].Index < got[j].Index })
		if d := digestAll(t, got, 8); d != want {
			t.Errorf("streamed on workers=%d diverges from one worker:\n--- want\n%s--- got\n%s", workers, want, d)
		}
	}
}

// noDevice is a one-cell group without a device whose measure is m.
func noDevice(name string, m Measure) Group {
	return Group{Spec: Spec{Name: name, NoDevice: true}, Measure: m}
}

// TestErrorIsolation: one cell failing (error or panic) must not wedge
// or poison the rest of the batch.
func TestErrorIsolation(t *testing.T) {
	boom := errors.New("deliberate failure")
	res := runAll(t, &Runner{Workers: 4},
		switchGroup("ok0", 1, 1),
		noDevice("fails", func(*Ctx, Cell) (Outcome, error) { return Outcome{}, boom }),
		noDevice("panics", func(*Ctx, Cell) (Outcome, error) { panic("deliberate panic") }),
		switchGroup("ok1", 2, 1))
	if res[0].Err != "" || res[3].Err != "" {
		t.Fatalf("healthy cells failed: %v / %v", res[0].Err, res[3].Err)
	}
	if res[1].Err != boom.Error() {
		t.Errorf("cell 1: want %v, got %v", boom, res[1].Err)
	}
	if !strings.Contains(res[2].Err, "panicked") {
		t.Errorf("cell 2: want recovered panic, got %v", res[2].Err)
	}
}

// TestCancellation: cancelling the batch context abandons unstarted
// cells with ErrCanceled, in-flight cells see Ctx.Canceled and stop
// their stepping loop, and the pool still returns a full result set.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	label := func(v string) Outcome {
		var o Outcome
		o.Label("v", v)
		return o
	}
	// Workers claim in index order: with two workers, one takes the
	// canceller and the other the in-flight device; the third cell is
	// only claimed after the cancel.
	groups := []Group{
		noDevice("canceller", func(*Ctx, Cell) (Outcome, error) {
			<-started // cell 1 is running before we cancel
			cancel()
			return label("done"), nil
		}),
		{Spec: Spec{Name: "inflight"}, Measure: func(c *Ctx, _ Cell) (Outcome, error) {
			close(started)
			for n := 0; !c.Canceled(); n++ {
				if n > 1_000_000 {
					return Outcome{}, errors.New("cancellation never observed")
				}
				c.Dev.RunFor(netfpga.Microsecond)
				// Yield so the canceller goroutine runs even on a
				// single-CPU machine: this empty device's RunFor has no
				// preemption point, and the loop must observe the
				// cancel, not race it.
				runtime.Gosched()
			}
			return label("interrupted"), nil
		}},
		switchGroup("never-starts", 3, 1),
	}
	rs, err := RunGroups(ctx, &Runner{Workers: 2}, groups, "")
	if err != nil {
		t.Fatal(err)
	}
	res := rs.Cells
	if res[0].Err != "" || res[0].L("v") != "done" {
		t.Errorf("cell 0: %q %q", res[0].L("v"), res[0].Err)
	}
	if res[1].Err != "" || res[1].L("v") != "interrupted" {
		t.Errorf("cell 1: %q %q", res[1].L("v"), res[1].Err)
	}
	if !strings.HasPrefix(res[2].Err, ErrCanceled.Error()) {
		t.Errorf("cell 2: want ErrCanceled, got %v", res[2].Err)
	}
}

// TestAcquireRelease is the device hand-back contract of runCell and
// the plan's device cache: a cell on a registry board and project takes
// the cached device built at its key's fidelity, which goes back to the
// cache exactly once, after the measure, and only when the cell
// succeeded and the batch was not canceled; a device that fails to
// build is a build error, and nothing goes back.
func TestAcquireRelease(t *testing.T) {
	boom := errors.New("deliberate failure")
	cases := []struct {
		name      string
		boardFail bool
		measure   func(c *Ctx, cancel func()) (Outcome, error)
		wantErr   string // substring of the cell's error; "" for success
		kept      bool   // whether the device went back to the cache
	}{
		{name: "succeeds", measure: func(*Ctx, func()) (Outcome, error) { return Outcome{}, nil },
			kept: true},
		{name: "fails", measure: func(*Ctx, func()) (Outcome, error) { return Outcome{}, boom },
			wantErr: boom.Error()},
		{name: "panics", measure: func(*Ctx, func()) (Outcome, error) { panic("deliberate panic") },
			wantErr: "panicked"},
		{name: "canceled mid-run", measure: func(c *Ctx, cancel func()) (Outcome, error) {
			cancel()
			if !c.Canceled() {
				return Outcome{}, errors.New("cancel not observed")
			}
			return Outcome{}, nil
		}},
		{name: "acquire fails", boardFail: true, wantErr: "build: board: " + boom.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var p *Plan
			var cached *netfpga.Device
			ran := 0
			spec := Spec{Name: "c", Projects: []string{"reference_iotest"}, Seeds: []uint64{7},
				Fidelities: []string{netfpga.FidelityHybrid}}
			if tc.boardFail {
				spec.BoardFor = func(Cell) (netfpga.BoardSpec, error) { return netfpga.BoardSpec{}, boom }
			}
			measure := func(c *Ctx, _ Cell) (Outcome, error) {
				if ran++; ran == 1 {
					cached = c.Dev // the warm-up cell's device goes to the cache
					return Outcome{}, nil
				}
				if c.Dev != cached || c.Seed != 7 || !c.Dev.Hybrid() {
					t.Error("the measure did not get the cached device, reseeded, at the cell's fidelity")
				}
				if len(p.devs.idle) != 0 {
					t.Error("device released before the measure returned")
				}
				return tc.measure(c, cancel)
			}
			p, err := PlanGroups([]Group{{Spec: spec, Measure: measure}}, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.boardFail {
				if cr := p.runCell(context.Background(), 0, nil); cr.Err != "" || len(p.devs.idle) != 1 {
					t.Fatalf("warm-up cell: %q, %d idle devices", cr.Err, len(p.devs.idle))
				}
			}
			cr := p.runCell(ctx, 0, nil)
			switch {
			case tc.wantErr == "" && cr.Err != "":
				t.Errorf("unexpected error %v", cr.Err)
			case tc.wantErr != "" && !strings.Contains(cr.Err, tc.wantErr):
				t.Errorf("error %q, want one containing %q", cr.Err, tc.wantErr)
			}
			if kept := len(p.devs.idle) == 1 && p.devs.idle[0].dev == cached; kept != tc.kept || len(p.devs.idle) > 1 {
				t.Errorf("%d idle devices, the cell's kept %v; want it kept %v", len(p.devs.idle), kept, tc.kept)
			}
			if tc.boardFail && ran != 0 {
				t.Error("the measure ran without a device")
			}
		})
	}
}

// TestRunStream: streaming delivers every result exactly once.
func TestRunStream(t *testing.T) {
	const n = 6
	values := make([]string, n)
	for i := range values {
		values[i] = strconv.Itoa(i)
	}
	g := Group{Spec: Spec{Name: "s", NoDevice: true, Params: []Axis{{Name: "i", Values: values}}},
		Measure: func(_ *Ctx, cell Cell) (Outcome, error) {
			var o Outcome
			o.Set("sq", float64(cell.Int("i")*cell.Int("i")))
			return o, nil
		}}
	ch, _, err := RunStreamGroups(context.Background(), &Runner{Workers: 3}, []Group{g}, "")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]float64)
	for r := range ch {
		if _, dup := seen[r.Index]; dup {
			t.Fatalf("duplicate result for index %d", r.Index)
		}
		seen[r.Index] = r.V("sq")
	}
	if len(seen) != n {
		t.Fatalf("got %d results, want %d", len(seen), n)
	}
	for i := 0; i < n; i++ {
		if seen[i] != float64(i*i) {
			t.Errorf("index %d: value %v, want %d", i, seen[i], i*i)
		}
	}
}
