package experiments

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/netfpga/sweep"
	"repro/netfpga/sweep/shard"
	"repro/netfpga/sweep/shard/chaos"
)

// procConnector builds a re-dialable subprocess worker: every dial
// spawns this test binary as a fresh stdio session worker, so a chaos
// kill costs an incarnation, not the worker.
func procConnector(t *testing.T, name string) *shard.Connector {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &shard.Connector{Name: name, Dial: func() (*shard.Endpoint, error) {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "NF_SHARD_SESSION=1")
		cmd.Stderr = os.Stderr
		in, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		wait := singleWait(cmd)
		t.Cleanup(func() { _ = cmd.Process.Kill(); _ = wait() })
		return &shard.Endpoint{Name: name, In: in, Out: out,
			Kill: cmd.Process.Kill, Wait: wait}, nil
	}}
}

// chaosProfile is the fault mix the golden chaos gate injects: frequent
// duplicates and delays, occasional drops, corruption, kills, and
// truncations, hangs rare — every fault class represented while keeping
// the hang-timeout stalls from dominating wall time.
func chaosProfile(seed uint64) chaos.Config {
	return chaos.Config{
		Seed:     seed,
		Drop:     0.01,
		Dup:      0.05,
		Corrupt:  0.01,
		Truncate: 0.003,
		Delay:    0.05,
		DelayMax: 10 * time.Millisecond,
		Kill:     0.005,
		Hang:     0.001,
	}
}

// TestFleetGoldenChaos is the chaos acceptance gate: all 103 golden
// sweep digests must be byte-identical to the single-process run under
// deterministic fault injection, across three chaos seeds and both real
// transports —
//
//   - pipes: three subprocess stdio workers, each dial spawning a fresh
//     incarnation when chaos kills the previous one,
//   - tcp: three sessions against long-lived TCP worker processes; a
//     chaos kill severs the connection and the redial opens a fresh
//     session on the surviving process.
//
// The invariant chaos must never break is the digests, not the route
// taken to them. A seed that quarantined every worker would end the run
// in *FleetDownError (the CLI's -resume then finishes it in-process);
// none of these three does.
func TestFleetGoldenChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos fault matrix is slow")
	}
	g, err := sweep.ReadGolden(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (generate with TestGoldenSweep -update): %v", err)
	}
	plan, err := sweep.PlanGroups(paperGroups(t), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	req := shard.Request{
		Config:  filepath.Join("..", "..", "examples", "paper.sweep"),
		Workers: 2,
	}

	// The hang deadline is what the run waits out after every injected
	// hang or dropped cell frame, so it sets the test's wall time. It only
	// has to exceed the longest cell; a spurious hang just requeues, and
	// the digests are the assertion.
	hangTimeout := 1500 * time.Millisecond
	if raceEnabled {
		hangTimeout = 10 * time.Second
	}

	var mu sync.Mutex
	recovered := map[string]int{}
	runOne := func(t *testing.T, conns []*shard.Connector) {
		t.Helper()
		fl := &shard.Fleet{
			Req:          req,
			Connectors:   conns,
			HangTimeout:  hangTimeout,
			StallTimeout: 2 * time.Minute,
			CloseGrace:   10 * time.Second,
			Backoff:      shard.Backoff{Base: 50 * time.Millisecond, Max: time.Second},
			OnEvent: func(ev shard.FleetEvent) {
				switch ev.Kind {
				case "death", "hang", "duplicate", "reconnect", "quarantine":
					mu.Lock()
					recovered[ev.Kind]++
					mu.Unlock()
				}
			},
		}
		rs, _, err := fl.Run(context.Background(), plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range rs.Failed() {
			t.Errorf("cell %s failed: %s", f.Cell.Key, f.Err)
		}
		if diffs := sweep.DiffGolden(g, rs, false); len(diffs) > 0 {
			for _, d := range diffs {
				t.Errorf("golden mismatch:\n  %s", d)
			}
		}
	}

	for _, seed := range []uint64{7, 19} {
		t.Run(fmt.Sprintf("pipes-seed=%d", seed), func(t *testing.T) {
			cfg := chaosProfile(seed)
			conns := make([]*shard.Connector, 3)
			for i := range conns {
				c := procConnector(t, fmt.Sprintf("proc:%d", i))
				conns[i] = &shard.Connector{Name: c.Name, Dial: chaos.WrapDial(c.Name, c.Dial, cfg)}
			}
			runOne(t, conns)
		})
	}

	t.Run("tcp-seed=42", func(t *testing.T) {
		cfg := chaosProfile(42)
		conns := make([]*shard.Connector, 3)
		for i := range conns {
			addr, _ := tcpWorkerSelf(t)
			name := fmt.Sprintf("tcp:%d", i)
			dial := func() (*shard.Endpoint, error) { return shard.Dial(addr) }
			conns[i] = &shard.Connector{Name: name, Dial: chaos.WrapDial(name, dial, cfg)}
		}
		runOne(t, conns)
	})

	mu.Lock()
	defer mu.Unlock()
	for _, kind := range []string{"hang", "death"} {
		if recovered[kind] == 0 {
			t.Errorf("no %s event across three chaos seeds — that fault class never engaged", kind)
		}
	}
	t.Logf("recovery events across seeds: %v", recovered)
}

// TestFleetGoldenResume is the resume acceptance gate at package scale:
// a run seeded with half its cells from a previous execution adopts
// them — digest-verified, never re-executed — runs only the remainder,
// and still matches all 103 golden digests.
func TestFleetGoldenResume(t *testing.T) {
	if testing.Short() {
		t.Skip("resume golden is slow")
	}
	g, err := sweep.ReadGolden(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (generate with TestGoldenSweep -update): %v", err)
	}
	plan, err := sweep.PlanGroups(paperGroups(t), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	req := shard.Request{
		Config:  filepath.Join("..", "..", "examples", "paper.sweep"),
		Workers: 2,
	}

	// The "interrupted" run: a full fleet sweep whose streamed records
	// stand in for the persisted partial run on disk.
	var harvested []sweep.CellRecord
	fl := &shard.Fleet{Req: req, Endpoints: []*shard.Endpoint{
		sessionProcSelf(t, "proc:0"),
		sessionProcSelf(t, "proc:1"),
	}}
	if _, _, err := fl.Run(context.Background(), plan, func(cr sweep.CellResult) {
		harvested = append(harvested, cr.Record())
	}); err != nil {
		t.Fatal(err)
	}
	half := len(harvested) / 2
	completed := harvested[:half]
	adopted := map[string]bool{}
	for _, cr := range completed {
		adopted[cr.Key] = true
	}

	var streamed []string
	fl2 := &shard.Fleet{
		Req: req,
		Endpoints: []*shard.Endpoint{
			sessionProcSelf(t, "proc:0"),
			sessionProcSelf(t, "proc:1"),
		},
		Completed: completed,
	}
	rs, _, err := fl2.Run(context.Background(), plan, func(cr sweep.CellResult) {
		streamed = append(streamed, cr.Cell.Key)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(plan.Cells)-half {
		t.Errorf("resumed run streamed %d cells, want %d", len(streamed), len(plan.Cells)-half)
	}
	for _, key := range streamed {
		if adopted[key] {
			t.Errorf("adopted cell %s was re-executed", key)
		}
	}
	for _, f := range rs.Failed() {
		t.Errorf("cell %s failed: %s", f.Cell.Key, f.Err)
	}
	if diffs := sweep.DiffGolden(g, rs, false); len(diffs) > 0 {
		for _, d := range diffs {
			t.Errorf("golden mismatch:\n  %s", d)
		}
	}
}
