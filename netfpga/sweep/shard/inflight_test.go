package shard

import (
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"repro/netfpga/fleet"
	"repro/netfpga/sweep"
)

// slowEndpoint delays every Cell frame on an endpoint's return stream
// by d. The worker behind it computes at full speed, but the
// coordinator perceives a worker that takes d per cell — the artificial
// slow machine in a heterogeneous fleet. Hello and Done pass through
// undelayed so session setup stays prompt.
func slowEndpoint(inner *Endpoint, d time.Duration) *Endpoint {
	slow := mitmEndpoint(inner, func(fr SessionFrame) []SessionFrame {
		if fr.Cell != nil {
			time.Sleep(d)
		}
		return []SessionFrame{fr}
	})
	slow.Name = inner.Name
	return slow
}

// tapAssigns interposes on an endpoint's command stream: every Assign
// the coordinator sends is reported to fn (how many keys it carries)
// before it reaches the worker.
func tapAssigns(inner *Endpoint, fn func(keys int)) *Endpoint {
	r, w := io.Pipe()
	go func() {
		for {
			var cmd Command
			if err := ReadFrame(r, &cmd); err != nil {
				return
			}
			if cmd.Assign != nil {
				fn(len(cmd.Assign.Keys))
			}
			if err := WriteFrame(inner.In, cmd); err != nil {
				_ = r.CloseWithError(err)
				return
			}
		}
	}()
	out := *inner
	out.In = w
	out.Kill = func() error {
		_ = r.Close()
		return inner.Kill()
	}
	return &out
}

// inflight is an endpoint's depth as the wire shows it: keys assigned
// minus Cell frames returned, with the first Assign's size and the peak.
type inflight struct {
	mu               sync.Mutex
	cur, peak, first int
}

func (d *inflight) assigned(keys int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.first == 0 {
		d.first = keys
	}
	d.cur += keys
	d.peak = max(d.peak, d.cur)
}

// returned counts a Cell frame on its way back, before the coordinator
// can answer it with the next Assign.
func (d *inflight) returned(fr SessionFrame) []SessionFrame {
	if fr.Cell != nil {
		d.mu.Lock()
		d.cur--
		d.mu.Unlock()
	}
	return []SessionFrame{fr}
}

func (d *inflight) read() (first, peak int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.first, d.peak
}

// TestFleetSlowWorkerHoldsTwicePoolWidth: placement on a synthetic
// heterogeneous fleet with no history. One worker is artificially
// slowed; at a pool width of 1 it never holds more than two cells — one
// running, one queued — so the fast worker pulls the rest of the plan
// and the slow one ends the run with fewer cells. Digests are
// byte-identical to the in-process run: placement never moves results.
func TestFleetSlowWorkerHoldsTwicePoolWidth(t *testing.T) {
	want := fullRun(t)
	var depth inflight
	slow := slowEndpoint(PipeWorker(context.Background(), "slow", testPlan), 100*time.Millisecond)
	slow = tapAssigns(mitmEndpoint(slow, depth.returned), depth.assigned)
	slow.Name = "slow" // mitmEndpoint renames; reports and events key on this
	// The fast worker joins only after the slow one's hello — its
	// top-up — so it cannot drain the plan first.
	gate, release := helloGate(t)
	fast := holdHello(PipeWorker(context.Background(), "fast", testPlan), gate)
	var log eventLog
	f := &Fleet{
		Req:       Request{Config: "matrix", Workers: 1},
		Endpoints: []*Endpoint{slow, fast},
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
	if _, peak := depth.read(); peak != 2 {
		t.Errorf("slow worker held up to %d cells, want 2 (twice its pool width of 1)", peak)
	}
	cells := map[string]int{}
	for _, rep := range f.Reports {
		cells[rep.Name] = rep.Cells
	}
	if cells["slow"] == 0 || cells["slow"] >= cells["fast"] {
		t.Errorf("slow worker finished %d cells, fast %d — the pull loop did not favour the fast one",
			cells["slow"], cells["fast"])
	}
}

// TestFleetFillsWidePool: a worker's in-flight depth comes from the pool
// width its Hello declares, not from the plan's size — one worker with a
// pool of 8 is handed 16 cells at once, so every pool goroutine is fed —
// and the width is capped at what Open asked for, so a forged Hello
// cannot claim the plan.
func TestFleetFillsWidePool(t *testing.T) {
	wide := testGroup()
	wide.Spec.Seeds = []uint64{1, 2, 3}
	plan, err := sweep.PlanGroups([]sweep.Group{wide}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) < 16 {
		t.Fatalf("fixture plan has %d cells, need at least 16", len(plan.Cells))
	}
	ref, err := sweep.RunGroups(context.Background(), fleet.New(2), []sweep.Group{wide}, "")
	if err != nil {
		t.Fatal(err)
	}
	planFor := func(Request) (*sweep.Plan, error) { return plan, nil }
	var depth inflight
	f := &Fleet{
		Req:       Request{Config: "wide", Workers: 8},
		Endpoints: []*Endpoint{tapAssigns(PipeWorker(context.Background(), "wide", planFor), depth.assigned)},
	}
	rs, _, err := f.Run(context.Background(), plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, ref, rs)
	if first, _ := depth.read(); first != 16 {
		t.Errorf("first Assign carried %d of %d cells, want 16 (twice the pool width of 8)", first, len(plan.Cells))
	}

	var capped inflight
	forged := mitmEndpoint(PipeWorker(context.Background(), "forged", testPlan), func(fr SessionFrame) []SessionFrame {
		if fr.Hello != nil {
			fr.Hello.Workers = 1 << 20
		}
		return []SessionFrame{fr}
	})
	f = &Fleet{
		Req:       Request{Config: "matrix", Workers: 2},
		Endpoints: []*Endpoint{tapAssigns(forged, capped.assigned)},
	}
	rs, _, err = f.Run(context.Background(), sessionPlan(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, fullRun(t), rs)
	if first, _ := capped.read(); first != 4 {
		t.Errorf("forged Hello{Workers: 1<<20}: first Assign carried %d cells, want 4 (twice the 2 Open asked for)", first)
	}
}
