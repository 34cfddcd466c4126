package experiments

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"

	"repro/netfpga/sweep"
	"repro/netfpga/sweep/shard"
)

// TestMain lets this test binary double as a session worker, so the
// fleet is exercised across REAL OS process boundaries — same wiring as
// `nf-bench shard-worker`, same plan resolver (GroupsForConfig),
// different binary. Session mode (NF_SHARD_SESSION=1) serves the
// protocol on stdio; listen mode (NF_SHARD_LISTEN=1) serves it over TCP
// on an ephemeral port announced as "LISTEN <addr>" on stdout — the two
// worker shapes `nf-bench shard-worker` exposes.
func TestMain(m *testing.M) {
	if os.Getenv("NF_SHARD_SESSION") == "1" {
		err := shard.ServeSession(context.Background(), os.Stdin, os.Stdout, workerPlanForTest)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if os.Getenv("NF_SHARD_LISTEN") == "1" {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err == nil {
			fmt.Printf("LISTEN %s\n", l.Addr())
			err = shard.ListenAndServe(context.Background(), l, workerPlanForTest, nil)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func workerPlanForTest(req shard.Request) (*sweep.Plan, error) {
	cfg, err := sweep.LoadConfig(req.Config)
	if err != nil {
		return nil, err
	}
	groups, err := GroupsForConfig(cfg)
	if err != nil {
		return nil, err
	}
	return sweep.PlanGroups(groups, req.Filter, req.Seed)
}

// TestExecutorBackendsMatchGolden is the cross-process half of the
// execution-path matrix: every one of the 103 golden sweep digests must
// be byte-identical when shard.Fleet runs the plan over {1, 2, 4}
// session worker processes, each with a local pool of {1, 4} workers.
//
// TestGoldenSweep covers the in-process pool at workers {1, 4, 8};
// together the two tests close the matrix.
func TestExecutorBackendsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full backend matrix is slow")
	}
	g, err := sweep.ReadGolden(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (generate with TestGoldenSweep -update): %v", err)
	}
	plan, err := sweep.PlanGroups(paperGroups(t), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	configPath := filepath.Join("..", "..", "examples", "paper.sweep")
	for _, procs := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("procs=%d,workers=%d", procs, workers)
			eps := make([]*shard.Endpoint, procs)
			for i := range eps {
				eps[i] = sessionProcSelf(t, fmt.Sprintf("proc:%d", i))
			}
			fl := &shard.Fleet{
				Req:       shard.Request{Config: configPath, Workers: workers},
				Endpoints: eps,
			}
			rs, util, err := fl.Run(context.Background(), plan, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if util.Workers != procs*workers {
				t.Errorf("%s: fleet reports %d pool workers", label, util.Workers)
			}
			for _, f := range rs.Failed() {
				t.Errorf("%s: cell %s failed: %s", label, f.Cell.Key, f.Err)
			}
			for _, d := range sweep.DiffGolden(g, rs, false) {
				t.Errorf("%s: golden mismatch:\n  %s", label, d)
			}
		}
	}
}
