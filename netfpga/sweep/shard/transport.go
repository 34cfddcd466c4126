package shard

import (
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"sync"
)

// Endpoint is one session worker as the coordinator sees it,
// transport-erased: a stream commands go down, a stream frames come
// back, and teardown hooks. The same coordinator drives a subprocess
// over its stdio pipes and a remote worker over TCP.
type Endpoint struct {
	// Name labels the worker in events and errors ("proc:2",
	// "tcp:host:port").
	Name string
	// In carries Command frames to the worker; Out carries
	// SessionFrames back.
	In  io.Writer
	Out io.Reader
	// Kill severs the transport immediately — close the connection,
	// SIGKILL the process. It is how the coordinator unblocks a frame
	// read on a hung or dead worker; it must be safe to call more than
	// once.
	Kill func() error
	// Wait reaps the transport after the session ends (process wait);
	// optional.
	Wait func() error
}

// Connector is a worker the fleet can re-establish: a stable name plus
// a dial function that yields a fresh Endpoint each time it is called
// (a TCP redial, a subprocess respawn). The fleet dials it at startup
// and again — with exponential backoff — whenever the previous
// incarnation dies, so a flapping worker rejoins instead of being lost
// for the rest of the run.
type Connector struct {
	// Name labels the worker across incarnations in events, errors and
	// the run's per-worker reports.
	Name string
	// Dial establishes a new incarnation. It is called from a
	// coordinator-owned goroutine, one call in flight per connector.
	Dial func() (*Endpoint, error)
}

// Dial connects to a session worker serving on addr (see
// ListenAndServe / `nf-bench shard-worker -listen`).
func Dial(addr string) (*Endpoint, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("shard: dialing worker %s: %w", addr, err)
	}
	return connEndpoint("tcp:"+addr, conn), nil
}

// DialTLS connects to a TLS-serving session worker (see `nf-bench
// shard-worker -listen -tls-cert/-tls-key`). cfg carries the trust
// decision — typically RootCAs holding the fleet's CA; tls.Dial derives
// ServerName from addr when cfg leaves it empty. The handshake runs
// eagerly so a certificate the coordinator does not trust fails the
// dial, not the first frame.
func DialTLS(addr string, cfg *tls.Config) (*Endpoint, error) {
	conn, err := tls.Dial("tcp", addr, cfg)
	if err != nil {
		return nil, fmt.Errorf("shard: dialing TLS worker %s: %w", addr, err)
	}
	if err := conn.Handshake(); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("shard: TLS handshake with worker %s: %w", addr, err)
	}
	return connEndpoint("tls:"+addr, conn), nil
}

func connEndpoint(name string, conn net.Conn) *Endpoint {
	var once sync.Once
	kill := func() error {
		var err error
		once.Do(func() { err = conn.Close() })
		return err
	}
	return &Endpoint{Name: name, In: conn, Out: conn, Kill: kill}
}

// ListenAndServe serves session workers on a TCP listener: one session
// per accepted connection, sessions running concurrently. It returns
// when the listener closes or ctx is cancelled; per-session failures go
// to logf (nil = discarded) — a coordinator that vanishes mid-sweep
// must not take a long-lived worker down with it.
func ListenAndServe(ctx context.Context, l net.Listener, planFor PlanFunc, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			_ = l.Close()
		case <-done:
		}
	}()
	var sessions sync.WaitGroup
	defer sessions.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			defer conn.Close()
			logf("shard worker: session from %s", conn.RemoteAddr())
			if err := ServeSession(ctx, conn, conn, planFor); err != nil {
				logf("shard worker: session from %s: %v", conn.RemoteAddr(), err)
			} else {
				logf("shard worker: session from %s done", conn.RemoteAddr())
			}
		}()
	}
}

// PipeWorker starts an in-process session worker over synchronous
// pipes and returns its endpoint — the worker of an `nf-bench` run with
// no -shards or -connect, and of unit tests — with exactly the frame
// traffic of the process and TCP transports.
func PipeWorker(ctx context.Context, name string, planFor PlanFunc) *Endpoint {
	cmdR, cmdW := io.Pipe()
	frameR, frameW := io.Pipe()
	go func() {
		err := ServeSession(ctx, cmdR, frameW, planFor)
		// Propagate the session's end to the coordinator's reader.
		_ = frameW.CloseWithError(err)
		_ = cmdR.Close()
	}()
	var once sync.Once
	kill := func() error {
		once.Do(func() {
			_ = cmdW.Close()
			_ = frameR.Close()
		})
		return nil
	}
	return &Endpoint{Name: name, In: cmdW, Out: frameR, Kill: kill}
}
