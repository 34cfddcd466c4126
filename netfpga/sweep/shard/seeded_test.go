package shard

import (
	"context"
	"io"
	"testing"
	"time"
)

// slowEndpoint proxies an endpoint's return stream, delaying every
// Cell frame by d. The worker behind it computes at full speed, but
// the coordinator perceives a worker that takes d per cell — the
// artificial slow machine in a heterogeneous fleet. Hello and Done
// pass through undelayed so session setup stays prompt.
func slowEndpoint(inner *Endpoint, d time.Duration) *Endpoint {
	r, w := io.Pipe()
	go func() {
		defer w.Close()
		for {
			var fr SessionFrame
			if err := ReadFrame(inner.Out, &fr); err != nil {
				return
			}
			if fr.Cell != nil {
				time.Sleep(d)
			}
			if err := WriteFrame(w, fr); err != nil {
				return
			}
		}
	}()
	out := *inner
	out.Out = r
	return &out
}

// TestFleetSeededWeightsSlowWorker: the tentpole's scheduling claim on
// a synthetic heterogeneous fleet. One worker is artificially slowed;
// under uniform scheduling the coordinator keeps its full 2x-chunk
// top-up queued on it, under seeded weights (slow at 0.25, fast at
// 1.75 — what fleet.CapacityWeights derives from such an imbalance)
// the slow worker holds at most one cell in flight and ends the run
// with measurably fewer cells. Digests are byte-identical either way:
// weights move placement, never results.
func TestFleetSeededWeightsSlowWorker(t *testing.T) {
	want := fullRun(t)
	const delay = 100 * time.Millisecond

	run := func(weights map[string]float64) (slowCells, schedEvents int) {
		t.Helper()
		slow := slowEndpoint(PipeWorker(context.Background(), "slow", testPlan), delay)
		// The fast worker joins only after the slow one's hello — its
		// top-up — so it cannot drain the plan first.
		gate, release := helloGate(t)
		fast := holdHello(PipeWorker(context.Background(), "fast", testPlan), gate)
		var log eventLog
		f := &Fleet{
			Req:       Request{Config: "matrix", Workers: 1},
			Endpoints: []*Endpoint{slow, fast},
			Weights:   weights,
			OnEvent:   log.releaseOn("slow", "hello", release),
		}
		rs, util, err := f.Run(context.Background(), sessionPlan(t), nil)
		if err != nil {
			t.Fatal(err)
		}
		checkMatches(t, want, rs)
		if util.Jobs != len(want.Cells) {
			t.Fatalf("utilization reports %d jobs, want %d", util.Jobs, len(want.Cells))
		}
		found := false
		for _, rep := range f.Reports {
			if rep.Name == "slow" {
				slowCells, found = rep.Cells, true
			}
		}
		if !found {
			t.Fatal("no per-worker report for the slow endpoint")
		}
		return slowCells, log.count("sched")
	}

	slowUniform, schedUniform := run(nil)
	slowSeeded, schedSeeded := run(map[string]float64{"slow": 0.25, "fast": 1.75})

	if schedUniform != 0 {
		t.Errorf("uniform run emitted %d sched events, want 0", schedUniform)
	}
	if schedSeeded != 1 {
		t.Errorf("seeded run emitted %d sched events, want 1", schedSeeded)
	}
	if slowUniform < 2 {
		t.Fatalf("uniform run gave the slow worker %d cells; fixture expects its full 2-cell top-up", slowUniform)
	}
	if slowSeeded >= slowUniform {
		t.Errorf("seeded scheduling gave the slow worker %d cells, uniform gave %d — weights had no effect",
			slowSeeded, slowUniform)
	}
}
