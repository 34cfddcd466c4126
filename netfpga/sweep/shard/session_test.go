package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"

	"repro/netfpga/sweep"
)

// sessionPlan builds the coordinator-side plan matching the "matrix"
// test config.
func sessionPlan(t *testing.T) *sweep.Plan {
	t.Helper()
	plan, err := sweep.PlanGroups([]sweep.Group{testGroup()}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// pipeFleet builds n in-process session workers over pipes.
func pipeFleet(ctx context.Context, n int) []*Endpoint {
	eps := make([]*Endpoint, n)
	for i := range eps {
		eps[i] = PipeWorker(ctx, fmt.Sprintf("pipe:%d", i), testPlan)
	}
	return eps
}

// eventLog collects fleet events thread-safely and counts by kind.
type eventLog struct {
	mu  sync.Mutex
	evs []FleetEvent
}

func (l *eventLog) add(ev FleetEvent) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *eventLog) count(kind string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ev := range l.evs {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestFleetPipes: the session protocol end to end over pipe transports
// at several fleet widths — every digest byte-identical to the
// in-process reference, every cell streamed exactly once.
func TestFleetPipes(t *testing.T) {
	want := fullRun(t)
	for _, n := range []int{1, 2, 3} {
		var streamed int
		f := &Fleet{
			Req:       Request{Config: "matrix", Workers: 2},
			Endpoints: pipeFleet(context.Background(), n),
		}
		rs, util, err := f.Run(context.Background(), sessionPlan(t), func(sweep.CellResult) { streamed++ })
		if err != nil {
			t.Fatalf("fleet=%d: %v", n, err)
		}
		if streamed != len(want.Cells) {
			t.Errorf("fleet=%d: streamed %d cells, want %d", n, streamed, len(want.Cells))
		}
		if util.Jobs != len(want.Cells) || util.Workers != 2*n {
			t.Errorf("fleet=%d: utilization reports %d jobs on %d workers, want %d on %d",
				n, util.Jobs, util.Workers, len(want.Cells), 2*n)
		}
		checkMatches(t, want, rs)
	}
}

// TestFleetWorkerDeath: an endpoint severed mid-run (connection loss as
// the coordinator sees it) has its unfinished cells requeued onto the
// survivors, and the merged digests are byte-identical to an unkilled
// run.
func TestFleetWorkerDeath(t *testing.T) {
	want := fullRun(t)
	eps := pipeFleet(context.Background(), 3)
	var log eventLog
	killed := false
	f := &Fleet{
		Req:       Request{Config: "matrix", Workers: 1},
		Endpoints: eps,
		OnEvent:   log.add,
	}
	rs, _, err := f.Run(context.Background(), sessionPlan(t), func(sweep.CellResult) {
		if !killed {
			killed = true
			_ = eps[0].Kill() // sever the first worker at first blood
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, want, rs)
	if log.count("death") == 0 {
		t.Error("no death event for the severed worker")
	}
}

// TestFleetHangingWorker: a worker that accepts the session but never
// executes anything trips the hang deadline, dies, and its cells finish
// elsewhere.
func TestFleetHangingWorker(t *testing.T) {
	want := fullRun(t)

	// The hung worker: speaks a correct Open/Hello, then goes silent
	// forever while consuming commands.
	hungIn, hungInW := io.Pipe()
	hungOut, hungOutW := io.Pipe()
	go func() {
		var cmd Command
		if err := ReadFrame(hungIn, &cmd); err != nil || cmd.Open == nil {
			return
		}
		plan, err := testPlan(*cmd.Open)
		if err != nil {
			return
		}
		_ = WriteFrame(hungOutW, SessionFrame{Hello: &Hello{Cells: len(plan.Cells), Workers: 1}})
		for {
			if err := ReadFrame(hungIn, &cmd); err != nil {
				return
			}
		}
	}()
	var once sync.Once
	hung := &Endpoint{Name: "hung", In: hungInW, Out: hungOut, Kill: func() error {
		once.Do(func() {
			_ = hungInW.Close()
			_ = hungOutW.Close()
		})
		return nil
	}}

	var log eventLog
	f := &Fleet{
		Req:         Request{Config: "matrix", Workers: 2},
		Endpoints:   append(pipeFleet(context.Background(), 1), hung),
		HangTimeout: 400 * time.Millisecond,
		OnEvent:     log.add,
	}
	rs, _, err := f.Run(context.Background(), sessionPlan(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, want, rs)
	if log.count("hang") == 0 {
		t.Error("hung worker was never declared hung")
	}
}

// mitmEndpoint interposes on a worker's frame stream: every received
// frame is passed to mutate, and whatever frames it returns are
// forwarded — the harness for tamper and duplicate fault injection.
func mitmEndpoint(inner *Endpoint, mutate func(SessionFrame) []SessionFrame) *Endpoint {
	outR, outW := io.Pipe()
	go func() {
		for {
			var fr SessionFrame
			if err := ReadFrame(inner.Out, &fr); err != nil {
				_ = outW.CloseWithError(err)
				return
			}
			for _, f := range mutate(fr) {
				if err := WriteFrame(outW, f); err != nil {
					return
				}
			}
		}
	}()
	return &Endpoint{Name: inner.Name + "+mitm", In: inner.In, Out: outR, Kill: inner.Kill, Wait: inner.Wait}
}

// TestFleetTamperedWorkerRecovered: a worker whose records are
// corrupted in flight is killed and its cells re-earned elsewhere — the
// run completes with correct digests instead of aborting, because the
// fleet maps wire-integrity failures to worker death.
func TestFleetTamperedWorkerRecovered(t *testing.T) {
	want := fullRun(t)
	inner := PipeWorker(context.Background(), "victim", testPlan)
	tampered := mitmEndpoint(inner, func(fr SessionFrame) []SessionFrame {
		if fr.Cell != nil {
			fr.Cell.Events++ // digest no longer reproducible
		}
		return []SessionFrame{fr}
	})
	var log eventLog
	f := &Fleet{
		Req:       Request{Config: "matrix", Workers: 1},
		Endpoints: []*Endpoint{tampered, PipeWorker(context.Background(), "honest", testPlan)},
		OnEvent:   log.add,
	}
	rs, _, err := f.Run(context.Background(), sessionPlan(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, want, rs)
	if log.count("death") == 0 {
		t.Error("tampering worker was never killed")
	}
}

// TestFleetDuplicateInFlight: the requeue race distilled — a cell
// completes twice (here: its frame duplicated in flight, exactly what a
// presumed-dead worker's late result looks like). The identical
// duplicate is adopted benignly and the run completes with every cell
// counted once.
func TestFleetDuplicateInFlight(t *testing.T) {
	want := fullRun(t)
	duplicated := false
	inner := PipeWorker(context.Background(), "dup", testPlan)
	dup := mitmEndpoint(inner, func(fr SessionFrame) []SessionFrame {
		if fr.Cell != nil && !duplicated {
			duplicated = true
			return []SessionFrame{fr, fr}
		}
		return []SessionFrame{fr}
	})
	var streamed int
	var log eventLog
	f := &Fleet{
		Req:       Request{Config: "matrix", Workers: 2},
		Endpoints: []*Endpoint{dup},
		OnEvent:   log.add,
	}
	rs, _, err := f.Run(context.Background(), sessionPlan(t), func(sweep.CellResult) { streamed++ })
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, want, rs)
	if streamed != len(want.Cells) {
		t.Errorf("streamed %d cells, want %d (duplicate leaked through)", streamed, len(want.Cells))
	}
	if !duplicated {
		t.Fatal("fault injection never fired")
	}
	if log.count("duplicate") != 1 {
		t.Errorf("%d duplicate events, want 1", log.count("duplicate"))
	}
}

// TestFleetDivergingDuplicateFatal: two completions of the same cell
// that disagree are a determinism violation — the run aborts with
// sweep.ErrDiverged instead of recovering.
func TestFleetDivergingDuplicateFatal(t *testing.T) {
	var mu sync.Mutex
	forged := false
	inner := PipeWorker(context.Background(), "forge", testPlan)
	forger := mitmEndpoint(inner, func(fr SessionFrame) []SessionFrame {
		mu.Lock()
		defer mu.Unlock()
		if fr.Cell != nil && !forged {
			forged = true
			twin := *fr.Cell
			// A second completion claiming different content: the
			// divergence check fires on the transmitted digests.
			twin.Digest = "0000000000000000"
			return []SessionFrame{fr, {Cell: &twin}}
		}
		return []SessionFrame{fr}
	})
	f := &Fleet{
		Req:       Request{Config: "matrix", Workers: 1},
		Endpoints: []*Endpoint{forger},
	}
	_, _, err := f.Run(context.Background(), sessionPlan(t), nil)
	if err == nil || !errors.Is(err, sweep.ErrDiverged) {
		t.Fatalf("diverging duplicate did not abort with ErrDiverged: %v", err)
	}
}

// TestFleetForcedMigration: with MigrateAfter set, every fresh cell
// parks mid-run, ships its ParkState back as a Checkpoint, and is
// resumed — replayed and digest-verified — on another worker. The final
// digests are byte-identical to a never-migrated run.
func TestFleetForcedMigration(t *testing.T) {
	want := fullRun(t)
	// Park inside even the shortest cell: half its total event count.
	minEvents := want.Cells[0].Events
	for _, c := range want.Cells {
		if c.Events < minEvents {
			minEvents = c.Events
		}
	}
	var log eventLog
	f := &Fleet{
		Req:          Request{Config: "matrix", Workers: 1},
		Endpoints:    pipeFleet(context.Background(), 2),
		MigrateAfter: minEvents / 2,
		OnEvent:      log.add,
	}
	rs, _, err := f.Run(context.Background(), sessionPlan(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, want, rs)
	cps := log.count("checkpoint")
	res := log.count("resume")
	if cps == 0 || res == 0 {
		t.Fatalf("forced migration never happened: %d checkpoints, %d resumes", cps, res)
	}
	if cps != len(want.Cells) {
		t.Errorf("%d checkpoints for %d cells — some cells never parked", cps, len(want.Cells))
	}
}

// TestFleetTCP: the same protocol over real TCP connections — two
// sessions served by one listener — plus a mixed fleet of TCP and pipe
// endpoints.
func TestFleetTCP(t *testing.T) {
	want := fullRun(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = ListenAndServe(ctx, l, testPlan, nil) }()

	dialN := func(n int) []*Endpoint {
		eps := make([]*Endpoint, n)
		for i := range eps {
			ep, err := Dial(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			eps[i] = ep
		}
		return eps
	}

	f := &Fleet{Req: Request{Config: "matrix", Workers: 2}, Endpoints: dialN(2)}
	rs, _, err := f.Run(context.Background(), sessionPlan(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, want, rs)

	// Mixed fleet: one TCP worker, one pipe worker.
	mixed := append(dialN(1), PipeWorker(context.Background(), "pipe:0", testPlan))
	f = &Fleet{Req: Request{Config: "matrix", Workers: 2}, Endpoints: mixed}
	rs, _, err = f.Run(context.Background(), sessionPlan(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, want, rs)
}

// TestFleetProcessSIGKILL: real OS processes over stdio transports,
// one SIGKILLed mid-sweep — the package-level version of the CI
// sweep-fault gate. Digests must be byte-identical to the in-process
// reference.
func TestFleetProcessSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("process fan-out is slow")
	}
	want := fullRun(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*Endpoint, 3)
	for i := range eps {
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
		eps[i] = &Endpoint{
			Name: fmt.Sprintf("proc:%d", i),
			In:   in, Out: out,
			Kill: cmd.Process.Kill,
			Wait: cmd.Wait,
		}
	}
	var log eventLog
	killed := false
	f := &Fleet{
		Req:       Request{Config: "matrix", Workers: 1},
		Endpoints: eps,
		OnEvent:   log.add,
	}
	rs, _, err := f.Run(context.Background(), sessionPlan(t), func(sweep.CellResult) {
		if !killed {
			killed = true
			_ = eps[0].Kill() // SIGKILL, mid-sweep
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, want, rs)
	if log.count("death") == 0 {
		t.Error("no death event for the SIGKILLed worker")
	}
}

// TestSessionSteal: the protocol-level steal handshake. A
// single-threaded worker holding a queue of cells is asked to Steal;
// some running cell parks at its next yield and comes back as a
// Checkpoint, which a Resume then finishes with the correct digest.
func TestSessionSteal(t *testing.T) {
	want := fullRun(t)
	ep := PipeWorker(context.Background(), "w", testPlan)
	send := func(c Command) {
		if err := WriteFrame(ep.In, c); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() SessionFrame {
		var fr SessionFrame
		if err := ReadFrame(ep.Out, &fr); err != nil {
			t.Fatal(err)
		}
		return fr
	}

	plan := sessionPlan(t)
	send(Command{Open: &Request{Config: "matrix", Workers: 1, SegmentBudget: 512}})
	if fr := recv(); fr.Hello == nil || fr.Hello.Cells != len(plan.Cells) {
		t.Fatalf("no hello: %+v", fr)
	}
	send(Command{Assign: &Assign{Keys: plan.Keys()[:4]}})
	send(Command{Steal: true})

	var cp *Checkpoint
	got := map[string]string{}
	for len(got) < 3 && cp == nil {
		fr := recv()
		switch {
		case fr.Cell != nil:
			got[fr.Cell.Key] = fr.Cell.Digest
		case fr.Checkpoint != nil:
			cp = fr.Checkpoint
		default:
			t.Fatalf("unexpected frame: %+v", fr)
		}
	}
	if cp == nil {
		t.Fatal("steal never produced a checkpoint")
	}
	if cp.State.Digest == "" || cp.State.Executed == 0 {
		t.Fatalf("empty checkpoint state: %+v", cp.State)
	}

	// Resume the stolen cell on the same session (any worker can).
	send(Command{Resume: cp})
	for {
		fr := recv()
		if fr.Cell != nil {
			got[fr.Cell.Key] = fr.Cell.Digest
			if fr.Cell.Key == cp.Key {
				break
			}
			continue
		}
		t.Fatalf("unexpected frame while resuming: %+v", fr)
	}
	send(Command{Close: true})
	if fr := recv(); fr.Done == nil || fr.Done.Cells != 4 {
		t.Fatalf("no done: %+v", fr)
	}

	for key, digest := range got {
		ref := want.Get(key)
		if ref == nil {
			t.Fatalf("unknown cell %s", key)
		}
		if digest != ref.Digest {
			t.Errorf("cell %s digest diverged after steal/resume", key)
		}
	}
}

// TestSessionRejectsForgedCheckpoint: a Resume carrying a state the
// replay cannot verify is rejected, never silently executed.
func TestSessionRejectsForgedCheckpoint(t *testing.T) {
	ep := PipeWorker(context.Background(), "w", testPlan)
	plan := sessionPlan(t)
	if err := WriteFrame(ep.In, Command{Open: &Request{Config: "matrix", Workers: 1}}); err != nil {
		t.Fatal(err)
	}
	var fr SessionFrame
	if err := ReadFrame(ep.Out, &fr); err != nil || fr.Hello == nil {
		t.Fatalf("no hello: %+v err=%v", fr, err)
	}
	forged := &Checkpoint{Key: plan.Cells[0].Key}
	forged.State.Executed = 5000
	forged.State.NowPS = 123456
	forged.State.Digest = "deadbeefdeadbeefdeadbeefdeadbeef"
	if err := WriteFrame(ep.In, Command{Resume: forged}); err != nil {
		t.Fatal(err)
	}
	if err := ReadFrame(ep.Out, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Reject == nil || fr.Reject.Key != forged.Key {
		t.Fatalf("forged checkpoint not rejected: %+v", fr)
	}
	if err := WriteFrame(ep.In, Command{Close: true}); err != nil {
		t.Fatal(err)
	}
	if err := ReadFrame(ep.Out, &fr); err != nil || fr.Done == nil || fr.Done.Cells != 0 {
		t.Fatalf("no done: %+v err=%v", fr, err)
	}
}

// TestSessionFrameRoundTrip: the session envelopes survive the framing
// layer, and a corrupt prefix surfaces as the typed FrameError.
func TestSessionFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cmds := []Command{
		{Open: &Request{Config: "matrix", Workers: 2}},
		{Assign: &Assign{Keys: []string{"a", "b"}, MigrateAfter: 100}},
		{Steal: true},
		{Close: true},
	}
	for _, c := range cmds {
		if err := WriteFrame(&buf, c); err != nil {
			t.Fatal(err)
		}
	}
	for i := range cmds {
		var c Command
		if err := ReadFrame(&buf, &c); err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
	}

	bad := bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	var c Command
	err := ReadFrame(bad, &c)
	var fe *FrameError
	if err == nil || !errors.As(err, &fe) {
		t.Fatalf("corrupt prefix did not produce a FrameError: %v", err)
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized prefix does not unwrap to ErrFrameTooLarge: %v", err)
	}

	// Truncated payload: header promises more than the stream holds.
	trunc := bytes.NewReader([]byte{0x00, 0x00, 0x00, 0x10, 0x7b})
	if err := ReadFrame(trunc, &c); err == nil || !errors.As(err, &fe) {
		t.Fatalf("truncated frame did not produce a FrameError: %v", err)
	}

	// A garbage payload of a sane length is also a FrameError.
	garbage := bytes.NewBuffer([]byte{0x00, 0x00, 0x00, 0x02})
	garbage.WriteString("{]")
	if err := ReadFrame(garbage, &c); err == nil || !errors.As(err, &fe) {
		t.Fatalf("undecodable frame did not produce a FrameError: %v", err)
	}
}
