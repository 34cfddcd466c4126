package shard

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/netfpga/sweep"
)

// assertNoSessionGoroutines fails the test if worker-session goroutines
// (ServeSession frames, session pool workers) are still running after
// the fleet returned — the leak check bounding shutdown. Teardown is
// asynchronous (Kill propagates through pipe closes), so the scan
// retries until a deadline before declaring a leak.
func assertNoSessionGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var stacks string
	for {
		buf := make([]byte, 1<<20)
		stacks = string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "shard.ServeSession") && !strings.Contains(stacks, "shard.runSessionItem") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session goroutines still alive after fleet shutdown:\n%s", stacks)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stubbornWorker speaks a correct Open/Hello and executes nothing: it
// consumes every further command silently and never acknowledges Close.
// The shape that exercises the stall watchdog.
func stubbornWorker(t *testing.T) *Endpoint {
	t.Helper()
	cmdR, cmdW := io.Pipe()
	frameR, frameW := io.Pipe()
	go func() {
		var cmd Command
		if err := ReadFrame(cmdR, &cmd); err != nil || cmd.Open == nil {
			return
		}
		plan, err := testPlan(*cmd.Open)
		if err != nil {
			return
		}
		_ = WriteFrame(frameW, SessionFrame{Hello: &Hello{Cells: len(plan.Cells), Workers: 1}})
		for {
			if err := ReadFrame(cmdR, &cmd); err != nil {
				return
			}
		}
	}()
	var once sync.Once
	kill := func() error {
		once.Do(func() {
			_ = cmdW.Close()
			_ = frameR.Close()
		})
		return nil
	}
	return &Endpoint{Name: "stubborn", In: cmdW, Out: frameR, Kill: kill}
}

// TestFleetReconnect: a connector worker whose first incarnation dies
// shortly after Hello is redialed, and the replacement incarnation
// finishes the run — digests identical, with death and reconnect both
// observed. The connector is the fleet's only worker, so nothing but a
// successful redial can complete it.
func TestFleetReconnect(t *testing.T) {
	want := fullRun(t)
	var mu sync.Mutex
	incarnations := 0
	var first *Endpoint
	conn := &Connector{Name: "flappy", Dial: func() (*Endpoint, error) {
		ep := PipeWorker(context.Background(), "flappy", testPlan)
		mu.Lock()
		incarnations++
		if incarnations == 1 {
			first = ep
		}
		mu.Unlock()
		return ep, nil
	}}
	var log eventLog
	f := &Fleet{
		Req:        Request{Config: "matrix", Workers: 1},
		Connectors: []*Connector{conn},
		OnEvent:    log.add,
	}
	var killOnce sync.Once
	rs, _, err := f.Run(context.Background(), sessionPlan(t), func(sweep.CellResult) {
		// Sever the first incarnation at first blood, with cells still
		// pending — only a redial can finish the run from here.
		killOnce.Do(func() {
			mu.Lock()
			ep := first
			mu.Unlock()
			_ = ep.Kill()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, want, rs)
	if log.count("death") == 0 {
		t.Error("killed incarnation produced no death event")
	}
	if log.count("reconnect") == 0 {
		t.Error("dead connector was never redialed")
	}
	mu.Lock()
	if incarnations < 2 {
		t.Errorf("only %d incarnations dialed", incarnations)
	}
	mu.Unlock()
}

// TestFleetStallWatchdog: a worker that accepts cells and silently
// executes nothing converts the would-be-forever hang into a typed
// *StallError with forensics naming the wedged worker.
func TestFleetStallWatchdog(t *testing.T) {
	f := &Fleet{
		Req:          Request{Config: "matrix", Workers: 1},
		Endpoints:    []*Endpoint{stubbornWorker(t)},
		StallTimeout: 400 * time.Millisecond,
	}
	_, _, err := f.Run(context.Background(), sessionPlan(t), nil)
	var se *StallError
	if err == nil || !errors.As(err, &se) {
		t.Fatalf("silent fleet did not fail with *StallError: %v", err)
	}
	if se.Merged != 0 || se.Total == 0 {
		t.Errorf("stall accounting off: merged %d of %d", se.Merged, se.Total)
	}
	if len(se.Workers) != 1 || se.Workers[0].Outstanding == 0 {
		t.Errorf("forensics do not show the wedged worker's outstanding cells: %+v", se.Workers)
	}
	if !strings.Contains(err.Error(), "stalled") {
		t.Errorf("error text lost the diagnosis: %v", err)
	}
}

// TestFleetResumeCompleted: cells adopted from a previous run are
// digest-verified, never re-executed, and never replayed to onCell; a
// record that fails verification is re-run instead of trusted. The
// final digests are byte-identical either way.
func TestFleetResumeCompleted(t *testing.T) {
	want := fullRun(t)
	half := len(want.Cells) / 2
	if half == 0 {
		t.Fatal("test matrix too small")
	}
	completed := make([]sweep.CellRecord, 0, half+2)
	for _, cr := range want.Cells[:half] {
		completed = append(completed, cr.Record())
	}
	// One corrupt record rides along: its digest does not reproduce, so
	// it must be rejected and its cell re-run.
	bad := want.Cells[half].Record()
	bad.Events++
	completed = append(completed, bad)
	// So does one of another seed, its digest true to its content: it
	// answers another run's question, so it too must be re-run.
	other := sessionPlan(t)
	other.Cells[half+1].Seed = 99
	cr, err := other.RunCell(context.Background(), other.Cells[half+1].Key, 0, 0, "", nil)
	if err != nil || cr.Seed != 99 {
		t.Fatalf("foreign-seed record: seed %d, %v", cr.Seed, err)
	}
	completed = append(completed, cr.Record())

	var streamed []string
	var log eventLog
	f := &Fleet{
		Req:       Request{Config: "matrix", Workers: 2},
		Endpoints: pipeFleet(context.Background(), 1),
		Completed: completed,
		OnEvent:   log.add,
	}
	rs, _, err := f.Run(context.Background(), sessionPlan(t), func(cr sweep.CellResult) {
		streamed = append(streamed, cr.Cell.Key)
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, want, rs)
	if len(streamed) != len(want.Cells)-half {
		t.Errorf("streamed %d cells, want %d (adopted cells must not replay to onCell)",
			len(streamed), len(want.Cells)-half)
	}
	for _, key := range streamed {
		for _, cr := range want.Cells[:half] {
			if key == cr.Cell.Key {
				t.Errorf("adopted cell %s was re-executed", key)
			}
		}
	}
	if log.count("adopt") == 0 {
		t.Error("no adopt events for a resumed run")
	}
	summary := fmt.Sprintf("%d cells adopted from previous run, 2 re-run", half)
	if !slices.ContainsFunc(log.evs, func(ev FleetEvent) bool { return ev.Kind == "adopt" && ev.Detail == summary }) {
		t.Errorf("no adopt event %q in %+v", summary, log.evs)
	}
}

// TestFleetResumeDivergingRecordFatal: a resumed record that contradicts
// the plan's determinism — same key, internally consistent content, but
// adopted twice with different digests — is a fatal ErrDiverged, not a
// silent re-run.
func TestFleetResumeDivergingRecordFatal(t *testing.T) {
	want := fullRun(t)
	rec := want.Cells[0].Record()
	twin := divergentTwin(t, rec.Key)
	eps := pipeFleet(context.Background(), 1)
	// Run fails before it attaches (and so before it owns) the endpoint.
	defer eps[0].Kill()
	f := &Fleet{
		Req:       Request{Config: "matrix", Workers: 1},
		Endpoints: eps,
		Completed: []sweep.CellRecord{rec, twin},
	}
	_, _, err := f.Run(context.Background(), sessionPlan(t), nil)
	if err == nil || !errors.Is(err, sweep.ErrDiverged) {
		t.Fatalf("diverging resumed record did not abort with ErrDiverged: %v", err)
	}
}

// selfSignedTLS builds an in-memory self-signed server certificate for
// 127.0.0.1 plus the client pool that trusts it.
func selfSignedTLS(t *testing.T) (tls.Certificate, *x509.CertPool) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "shard-worker"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}, pool
}

// TestFleetTLS: the session protocol over TLS — a listener wrapped with
// a self-signed certificate, dialed through DialTLS with the matching
// trust pool. An untrusting client must fail at dial time, and the
// trusted fleet's digests must match the in-process reference.
func TestFleetTLS(t *testing.T) {
	want := fullRun(t)
	cert, pool := selfSignedTLS(t)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := tls.NewListener(inner, &tls.Config{Certificates: []tls.Certificate{cert}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = ListenAndServe(ctx, l, testPlan, nil) }()
	addr := inner.Addr().String()

	if _, err := DialTLS(addr, &tls.Config{RootCAs: x509.NewCertPool()}); err == nil {
		t.Fatal("dial with an empty trust pool accepted a self-signed server")
	}

	ep, err := DialTLS(addr, &tls.Config{RootCAs: pool})
	if err != nil {
		t.Fatal(err)
	}
	f := &Fleet{Req: Request{Config: "matrix", Workers: 2}, Endpoints: []*Endpoint{ep}}
	rs, _, err := f.Run(context.Background(), sessionPlan(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, want, rs)
}

// FuzzSessionFrame: whatever bytes arrive on a session stream, ReadFrame
// either decodes a frame, reports clean end-of-stream, or returns a
// typed *FrameError — it never panics and never misclassifies garbage.
func FuzzSessionFrame(f *testing.F) {
	var seed []byte
	{
		var buf strings.Builder
		_ = WriteFrame(&buf, SessionFrame{Hello: &Hello{Cells: 3, Workers: 2}})
		_ = WriteFrame(&buf, SessionFrame{Cell: &sweep.CellRecord{Key: "a/b=1", Digest: "d"}})
		seed = []byte(buf.String())
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, '{', ']'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x10, 0x7b})
	f.Add([]byte{0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := strings.NewReader(string(data))
		for {
			var fr SessionFrame
			err := ReadFrame(r, &fr)
			if err == nil {
				continue
			}
			if err == io.EOF {
				return
			}
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("ReadFrame returned a non-FrameError for arbitrary bytes: %v", err)
			}
			return
		}
	})
}
