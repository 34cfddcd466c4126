package experiments

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
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

// singleWait serializes cmd.Wait behind a sync.Once: the fleet's
// reaper goroutine and the test cleanup may both wait on the worker
// process, and os/exec.Cmd.Wait is not safe for concurrent use.
func singleWait(cmd *exec.Cmd) func() error {
	var once sync.Once
	var err error
	return func() error {
		once.Do(func() { err = cmd.Wait() })
		return err
	}
}

// sessionProcSelf starts this test binary as a stdio session worker —
// the subprocess transport of the dynamic fleet, same wiring as
// `nf-bench shard-worker` spawned by `nf-bench sweep`.
func sessionProcSelf(t *testing.T, name string) *shard.Endpoint {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "NF_SHARD_SESSION=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	wait := singleWait(cmd)
	t.Cleanup(func() { _ = cmd.Process.Kill(); _ = wait() })
	return &shard.Endpoint{Name: name, In: in, Out: out,
		Kill: cmd.Process.Kill, Wait: wait}
}

// tcpWorkerSelf starts this test binary as a listening TCP worker on an
// ephemeral port and returns its announced address plus the process —
// the process handle is what the SIGKILL test murders mid-sweep.
func tcpWorkerSelf(t *testing.T) (string, *os.Process) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "NF_SHARD_LISTEN=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill(); _ = cmd.Wait() })
	sc := bufio.NewScanner(out)
	if !sc.Scan() {
		t.Fatalf("TCP worker exited before announcing its address: %v", sc.Err())
	}
	addr, ok := strings.CutPrefix(sc.Text(), "LISTEN ")
	if !ok {
		t.Fatalf("TCP worker announced %q, want LISTEN <addr>", sc.Text())
	}
	return addr, cmd.Process
}

// TestFleetGoldenFaults is the fault-injection acceptance gate of the
// networked fleet: all 103 golden sweep digests must be byte-identical
// to the single-process run whatever the transport and whatever goes
// wrong mid-sweep —
//
//   - pipes: three subprocess stdio workers, clean run (the baseline
//     that makes the TCP run a pipes-vs-TCP comparison),
//   - tcp-sigkill: three real TCP worker processes, one SIGKILLed
//     mid-sweep; its cells requeue onto the survivors.
//
// The CI sweep-fault job runs the same two scenarios through the
// `nf-bench` binary; this test keeps them in the `go test ./...` gate.
// It is the one golden over real OS processes: chaos, resume, pool
// widths and fleet shapes are FuzzFleetShape's, at fake time, in
// netfpga/sweep/shard.
func TestFleetGoldenFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet fault matrix is slow")
	}
	groups := paperGroups(t)
	g, err := sweep.ReadGolden(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (generate with TestGoldenSweep -update): %v", err)
	}
	plan, err := sweep.PlanGroups(groups, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	req := shard.Request{
		Config:  filepath.Join("..", "..", "examples", "paper.sweep"),
		Workers: 2,
	}
	check := func(t *testing.T, rs *sweep.Results) {
		t.Helper()
		for _, f := range rs.Failed() {
			t.Errorf("cell %s failed: %s", f.Cell.Key, f.Err)
		}
		if diffs := sweep.DiffGolden(g, rs, false); len(diffs) > 0 {
			for _, d := range diffs {
				t.Errorf("golden mismatch:\n  %s", d)
			}
		}
	}

	t.Run("pipes", func(t *testing.T) {
		fl := &shard.Fleet{Req: req, Endpoints: []*shard.Endpoint{
			sessionProcSelf(t, "proc:0"),
			sessionProcSelf(t, "proc:1"),
			sessionProcSelf(t, "proc:2"),
		}}
		rs, util, err := fl.Run(context.Background(), plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(t, rs)
		if util.Jobs != len(plan.Cells) {
			t.Errorf("utilization saw %d jobs, want %d", util.Jobs, len(plan.Cells))
		}
	})

	t.Run("tcp-sigkill", func(t *testing.T) {
		var eps []*shard.Endpoint
		var procs []*os.Process
		for i := 0; i < 3; i++ {
			addr, proc := tcpWorkerSelf(t)
			ep, err := shard.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			eps = append(eps, ep)
			procs = append(procs, proc)
		}
		deaths, requeued, adopted := 0, 0, 0
		fl := &shard.Fleet{Req: req, Endpoints: eps,
			OnEvent: func(ev shard.FleetEvent) {
				if ev.Kind == "death" {
					deaths++
					requeued += ev.Cells
				}
			}}
		// OnEvent and onCell both run on the coordinator goroutine, so
		// the kill is ordered before any later adoption: genuinely
		// mid-sweep, with the victim's remaining cells still owed.
		rs, _, err := fl.Run(context.Background(), plan, func(sweep.CellResult) {
			adopted++
			if adopted == 5 {
				_ = procs[0].Kill()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if deaths == 0 {
			t.Error("SIGKILLed worker produced no death event")
		}
		t.Logf("deaths=%d cells requeued=%d", deaths, requeued)
		check(t, rs)
	})
}
