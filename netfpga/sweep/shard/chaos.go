package shard

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Chaos injects transport faults into fleet sessions on a schedule
// derived deterministically from a seed — the reproducible failure
// model behind `nf-bench sweep -chaos <seed>` and the chaos CI gate.
//
// A chaos endpoint intercepts the worker→coordinator frame stream at
// frame granularity and, per frame, may drop it, delay it, duplicate
// it, corrupt one byte of it, truncate it and sever the stream, kill
// the worker outright, or hang it (go silent until killed). Faults are
// drawn from a splitmix64 stream seeded from (seed, stream name), with
// a fixed number of draws per frame — so the fault schedule is a pure
// function of (seed, worker, incarnation, frame index), and a re-run
// with the same seed replays the same schedule.
//
// Chaos cannot change results, only how much work it takes to reach
// them. Every fault lands in territory the coordinator already treats
// as hostile: a dropped or delayed frame is a hang, a corrupt frame is
// a malformed stream or a digest mismatch (the record's digest is
// recomputed from its content on arrival), a truncation or kill is a
// death — all of which end in requeue, reconnect or quarantine, and
// every surviving record still has to pass the same digest-verified
// Adopt. Any seed that leaves at least one path to completion yields
// byte-identical digests.

// chaosMix sets the per-frame fault probabilities, each in [0, 1], and
// the seed they are drawn from. The zero mix injects nothing.
type chaosMix struct {
	seed uint64
	// drop discards a frame (hang territory); dup forwards it twice;
	// corrupt flips one payload bit; truncate forwards a prefix and
	// severs the stream; delay holds it for up to delayMax; kill severs
	// the transport and kills the worker before it; hang goes silent
	// before it until the coordinator kills the worker.
	drop, dup, corrupt, truncate, delay, kill, hang float64
	delayMax                                        time.Duration
}

// defaultChaos is the mix `-chaos <seed>` injects: frequent small
// delays, occasional drops and duplicates, rare corruption, truncation,
// kills and hangs — enough that a 100-cell sweep sees several faults of
// most kinds without spending its whole life in recovery.
func defaultChaos(seed uint64) chaosMix {
	return chaosMix{
		seed:     seed,
		drop:     0.02,
		dup:      0.03,
		corrupt:  0.01,
		truncate: 0.005,
		delay:    0.08,
		delayMax: 30 * time.Millisecond,
		kill:     0.01,
		hang:     0.003,
	}
}

// chaosStream is one incarnation's fault stream: splitmix64 stepped
// from a base fixed by (seed, stream name), so a schedule replays
// without carrying generator state between runs.
type chaosStream struct{ x uint64 }

func newChaosStream(seed uint64, name string) *chaosStream {
	h := fnv.New64a()
	h.Write([]byte(name))
	return &chaosStream{x: h.Sum64() ^ seed}
}

func (s *chaosStream) next() uint64 {
	v := splitmix64(s.x)
	s.x += golden
	return v
}

// chance draws once, always — a fixed draw count is what makes the
// schedule a function of frame index alone.
func (s *chaosStream) chance(p float64) bool {
	v := float64(s.next()>>11) / float64(1<<53)
	return p > 0 && v < p
}

// chaosFault is what chaos does to one frame: deliver out — nothing
// when dropped, the frame twice when duplicated, a torn prefix when
// truncated — after delay, then kill the worker when sever is set.
// hang instead silences the stream until the worker is killed.
type chaosFault struct {
	out   []byte
	delay time.Duration
	sever bool
	hang  bool
}

// fault decides one raw frame's fate (header included), drawing exactly
// eight values from s whatever the frame holds. A corruption flips one
// payload bit of frame in place. The bit and the delay come from aux
// through splitmix64's finaliser alone, splitmix64(x - golden);
// TestChaosSchedulePinned pins both.
func (m chaosMix) fault(s *chaosStream, frame []byte) chaosFault {
	kill, hang, drop := s.chance(m.kill), s.chance(m.hang), s.chance(m.drop)
	truncate, corrupt, delay, dup := s.chance(m.truncate), s.chance(m.corrupt), s.chance(m.delay), s.chance(m.dup)
	aux := s.next() // parameter entropy: positions, bit index, delay
	switch {
	case kill:
		return chaosFault{sever: true}
	case hang:
		return chaosFault{hang: true}
	case drop:
		return chaosFault{}
	case truncate && len(frame) > 5:
		return chaosFault{out: frame[:5+int(aux%uint64(len(frame)-5))], sever: true}
	}
	if corrupt && len(frame) > 4 {
		frame[4+int(aux%uint64(len(frame)-4))] ^= byte(1 << (splitmix64(aux-golden) % 8))
	}
	f := chaosFault{out: frame}
	if delay && m.delayMax > 0 {
		f.delay = time.Duration(splitmix64(aux+1-golden) % uint64(m.delayMax))
	}
	if dup {
		f.out = bytes.Repeat(frame, 2)
	}
	return f
}

// wrapChaos returns ep with m's faults injected on its
// worker→coordinator frame stream, drawn from the named stream: the
// goroutine shell around fault. The coordinator-to-worker direction
// passes through untouched, since killing and hanging the reply stream
// already covers "the coordinator cannot reach the worker" from the
// only perspective the fleet acts on.
func wrapChaos(ep *Endpoint, m chaosMix, stream string) *Endpoint {
	s := newChaosStream(m.seed, stream)
	pr, pw := io.Pipe()
	killed := make(chan struct{})
	var once sync.Once
	kill := func() error {
		var err error
		once.Do(func() {
			close(killed)
			if ep.Kill != nil {
				err = ep.Kill()
			}
			_ = pw.CloseWithError(fmt.Errorf("chaos: worker %s killed", stream))
		})
		return err
	}
	go func() {
		for {
			frame, err := readRaw(ep.Out)
			if err != nil {
				_ = pw.CloseWithError(err)
				return
			}
			f := m.fault(s, frame)
			if f.hang {
				// Silence, not teardown: the stream stays open and
				// nothing moves until someone kills the worker.
				<-killed
				return
			}
			if f.delay > 0 {
				select {
				case <-time.After(f.delay):
				case <-killed:
					return
				}
			}
			if len(f.out) > 0 {
				if _, err := pw.Write(f.out); err != nil {
					return
				}
			}
			if f.sever {
				_ = kill()
				return
			}
		}
	}()
	return &Endpoint{Name: ep.Name, In: ep.In, Out: pr, Kill: kill, Wait: ep.Wait}
}

// ChaosDial decorates a connector's dial with the faults `-chaos seed`
// injects. Every incarnation gets its own deterministic fault stream:
// incarnation k of worker name draws from stream "name#k" whatever
// wall-clock order redials happen in.
func ChaosDial(name string, dial func() (*Endpoint, error), seed uint64) func() (*Endpoint, error) {
	return chaosDial(name, dial, defaultChaos(seed))
}

func chaosDial(name string, dial func() (*Endpoint, error), m chaosMix) func() (*Endpoint, error) {
	var inc atomic.Int64
	return func() (*Endpoint, error) {
		ep, err := dial()
		if err != nil {
			return nil, err
		}
		return wrapChaos(ep, m, fmt.Sprintf("%s#%d", name, inc.Add(1))), nil
	}
}
