package chaos

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/netfpga/fleet"
	"repro/netfpga/sweep"
	"repro/netfpga/sweep/shard"
	"repro/netfpga/workload"
)

// fleetGroup mirrors the shard package's test matrix: 8 cells across
// two projects, two workloads, and two BERs.
func fleetGroup() sweep.Group {
	return sweep.Group{
		Spec: sweep.Spec{
			Name:     "m",
			Projects: []string{"reference_switch", "reference_iotest"},
			Workloads: []sweep.Workload{
				{Name: "imix"},
				{Name: "min", Sizes: []workload.SizeWeight{{Bytes: 60, Weight: 1}}},
			},
			BERs:     []float64{0, 1e-5},
			Seeds:    []uint64{1},
			WindowUS: 40,
		},
		Measure: sweep.GenericMeasure,
	}
}

func fleetPlanFor(req shard.Request) (*sweep.Plan, error) {
	if req.Config != "matrix" {
		return nil, fmt.Errorf("unknown test config %q", req.Config)
	}
	return sweep.PlanGroups([]sweep.Group{fleetGroup()}, req.Filter, req.Seed)
}

// TestFleetChaosDigestInvariant is the standing invariant at package
// scale: a fleet whose every worker stream is wrapped in chaos — drops,
// delays, duplicates, corruption, truncation, kills, and hangs — still
// produces digests byte-identical to the in-process reference, for
// every seed tried. Connectors let killed workers reincarnate; a seed
// that quarantined the whole fleet would fail the run with
// *FleetDownError, and the test with it.
func TestFleetChaosDigestInvariant(t *testing.T) {
	want, err := sweep.RunGroups(context.Background(), fleet.New(2), []sweep.Group{fleetGroup()}, "")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sweep.PlanGroups([]sweep.Group{fleetGroup()}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	faults := map[string]int{}
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := Config{
				Seed: seed, Drop: 0.05, Dup: 0.08, Corrupt: 0.03, Truncate: 0.01,
				Delay: 0.15, DelayMax: 5 * time.Millisecond, Kill: 0.02, Hang: 0.01,
			}
			conns := make([]*shard.Connector, 2)
			for i := range conns {
				name := fmt.Sprintf("w%d", i)
				dial := func() (*shard.Endpoint, error) {
					return shard.PipeWorker(context.Background(), name, fleetPlanFor), nil
				}
				conns[i] = &shard.Connector{Name: name, Dial: WrapDial(name, dial, cfg)}
			}
			f := &shard.Fleet{
				Req:          shard.Request{Config: "matrix", Workers: 1},
				Connectors:   conns,
				HangTimeout:  2 * time.Second,
				StallTimeout: 2 * time.Minute,
				CloseGrace:   2 * time.Second,
				Backoff:      shard.Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond},
				OnEvent: func(ev shard.FleetEvent) {
					switch ev.Kind {
					case "death", "hang", "duplicate", "reconnect", "quarantine":
						mu.Lock()
						faults[ev.Kind]++
						mu.Unlock()
					}
				},
			}
			rs, _, err := f.Run(context.Background(), plan, nil)
			if err != nil {
				t.Fatalf("chaos seed %d failed the run: %v", seed, err)
			}
			if len(rs.Cells) != len(want.Cells) {
				t.Fatalf("chaos run has %d cells, reference %d", len(rs.Cells), len(want.Cells))
			}
			for i := range rs.Cells {
				if rs.Cells[i].Digest != want.Cells[i].Digest {
					t.Errorf("cell %s digest diverged under chaos seed %d", rs.Cells[i].Cell.Key, seed)
				}
			}
		})
	}
	// The invariant is only meaningful if the schedules actually bit:
	// across three seeds, at least one injected fault must have surfaced
	// as a recovery event.
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, n := range faults {
		total += n
	}
	if total == 0 {
		t.Error("no recovery events across three chaos seeds — faults never engaged")
	}
	t.Logf("recovery events across seeds: %v", faults)
}
