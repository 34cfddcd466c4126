package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
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
// in-process reference, every cell streamed exactly once, and the
// fleet's utilization naming its slowest cell.
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
		// Every session runs on the plan's pool, so the fleet's report
		// names its slowest cell as an in-process batch's does.
		if want.Get(util.LongestJob) == nil || util.LongestMS <= 0 {
			t.Errorf("fleet=%d: slowest cell %q (%vms), want a cell of the plan", n, util.LongestJob, util.LongestMS)
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
	// The survivors join only once the victim's death has been seen, so
	// the first cell is the victim's and its death lands mid-run.
	gate, release := helloGate(t)
	victim := eps[0]
	eps[1], eps[2] = holdHello(eps[1], gate), holdHello(eps[2], gate)
	var log eventLog
	killed := false
	f := &Fleet{
		Req:       Request{Config: "matrix", Workers: 1},
		Endpoints: eps,
		OnEvent:   log.releaseOn(victim.Name, "death", release),
	}
	rs, _, err := f.Run(context.Background(), sessionPlan(t), func(sweep.CellResult) {
		if !killed {
			killed = true
			_ = victim.Kill() // sever the first worker at first blood
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
// elsewhere. The leak check then proves the kill path tore every
// session down.
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
		_ = WriteFrame(hungOutW, SessionFrame{Hello: &Hello{Cells: len(plan.Cells), Workers: 1, Digest: sweep.DigestVersion}})
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

	// The working peer joins only after the hung worker's hello — its
	// top-up — so the hung worker owes cells when it goes silent.
	gate, release := helloGate(t)
	peer := holdHello(PipeWorker(context.Background(), "pipe:0", testPlan), gate)
	var log eventLog
	f := &Fleet{
		Req:         Request{Config: "matrix", Workers: 2},
		Endpoints:   []*Endpoint{peer, hung},
		HangTimeout: 400 * time.Millisecond,
		OnEvent:     log.releaseOn(hung.Name, "hello", release),
	}
	rs, _, err := f.Run(context.Background(), sessionPlan(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, want, rs)
	if log.count("hang") == 0 {
		t.Error("hung worker was never declared hung")
	}
	assertNoSessionGoroutines(t)
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

// holdHello delays a worker's Hello until gate closes, so the fleet
// cannot feed it before then: how a test makes sure the worker under
// test is fed, and its event observed, before a fast peer drains the
// plan. The endpoint keeps the inner name (events and reports carry it).
func holdHello(inner *Endpoint, gate <-chan struct{}) *Endpoint {
	held := mitmEndpoint(inner, func(fr SessionFrame) []SessionFrame {
		if fr.Hello != nil {
			<-gate
		}
		return []SessionFrame{fr}
	})
	held.Name = inner.Name
	return held
}

// helloGate returns a gate for holdHello and the function that opens it;
// the gate also opens when the test ends, so a failing test leaves no
// goroutine held.
func helloGate(t *testing.T) (gate <-chan struct{}, release func()) {
	ch := make(chan struct{})
	release = sync.OnceFunc(func() { close(ch) })
	t.Cleanup(release)
	return ch, release
}

// releaseOn returns an OnEvent that logs every event and calls release
// when worker's event of the given kind arrives.
func (l *eventLog) releaseOn(worker, kind string, release func()) func(FleetEvent) {
	return func(ev FleetEvent) {
		l.add(ev)
		if ev.Worker == worker && ev.Kind == kind {
			release()
		}
	}
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
			fr.Cell.SimPS++ // digest no longer reproducible
		}
		return []SessionFrame{fr}
	})
	// The honest worker joins only once the tampering one has been
	// killed, so it cannot drain the plan before the victim is fed.
	gate, release := helloGate(t)
	honest := holdHello(PipeWorker(context.Background(), "honest", testPlan), gate)
	var log eventLog
	f := &Fleet{
		Req:       Request{Config: "matrix", Workers: 1},
		Endpoints: []*Endpoint{tampered, honest},
		OnEvent:   log.releaseOn(tampered.Name, "death", release),
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
	twins := map[string]sweep.CellRecord{}
	for _, key := range sessionPlan(t).Keys() {
		twins[key] = divergentTwin(t, key)
	}
	var mu sync.Mutex
	forged := false
	inner := PipeWorker(context.Background(), "forge", testPlan)
	forger := mitmEndpoint(inner, func(fr SessionFrame) []SessionFrame {
		mu.Lock()
		defer mu.Unlock()
		if fr.Cell != nil && !forged {
			forged = true
			// A second, intact completion with different content.
			twin := twins[fr.Cell.Key]
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
	// As in TestFleetWorkerDeath: the survivors join once the victim's
	// death has been seen, so the kill lands mid-sweep.
	gate, release := helloGate(t)
	victim := eps[0]
	eps[1], eps[2] = holdHello(eps[1], gate), holdHello(eps[2], gate)
	var log eventLog
	killed := false
	f := &Fleet{
		Req:       Request{Config: "matrix", Workers: 1},
		Endpoints: eps,
		OnEvent:   log.releaseOn(victim.Name, "death", release),
	}
	rs, _, err := f.Run(context.Background(), sessionPlan(t), func(sweep.CellResult) {
		if !killed {
			killed = true
			_ = victim.Kill() // SIGKILL, mid-sweep
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

// TestSessionFrameRoundTrip: the session envelopes survive the framing
// layer, and a corrupt prefix surfaces as the typed FrameError.
func TestSessionFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cmds := []Command{
		{Open: &Request{Config: "matrix", Workers: 2}},
		{Assign: &Assign{Keys: []string{"a", "b"}}},
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

	// An older coordinator's Steal and Resume commands decode to a
	// Command with no field set: the session answers one Err frame and
	// ends, having run nothing.
	for _, old := range []string{
		`{"steal":true}`,
		`{"resume":{"key":"k","state":{"now_ps":5,"executed":9,"digest":"d"}}}`,
	} {
		var in, out bytes.Buffer
		if err := WriteFrame(&in, Command{Open: &Request{Config: "matrix"}}); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&in, json.RawMessage(old)); err != nil {
			t.Fatal(err)
		}
		if err := ServeSession(context.Background(), &in, &out, testPlan); err == nil {
			t.Fatalf("%s: session accepted a deleted command", old)
		}
		var hello, fr SessionFrame
		if err := ReadFrame(&out, &hello); err != nil || hello.Hello == nil {
			t.Fatalf("%s: no hello: %+v err=%v", old, hello, err)
		}
		if err := ReadFrame(&out, &fr); err != nil || !strings.Contains(fr.Err, "empty command") {
			t.Fatalf("%s: want an \"empty command\" Err frame, got %+v err=%v", old, fr, err)
		}
		if err := ReadFrame(&out, &fr); err != io.EOF {
			t.Fatalf("%s: frames after the Err frame: %+v err=%v", old, fr, err)
		}
	}
	assertNoSessionGoroutines(t)
}
