// Package chaos injects transport faults into shard fleet sessions on
// a schedule derived deterministically from a seed — the reproducible
// failure model soak runs and the chaos CI gate are built on.
//
// A wrapped endpoint intercepts the worker→coordinator frame stream at
// frame granularity and, per frame, may drop it, delay it, duplicate
// it, corrupt one byte of it, truncate it and sever the stream, kill
// the worker outright, or hang it (go silent until killed). Faults are
// chosen by a splitmix64 stream seeded from (seed, stream name), with
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
// Adopt. The standing invariant: any chaos
// seed that leaves at least one path to completion yields byte-
// identical digests.
package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/netfpga/sweep/shard"
)

// Config sets the per-frame fault probabilities (each in [0, 1]) and
// the chaos seed they are drawn from. Zero probabilities inject
// nothing; the zero Config is a no-op.
type Config struct {
	// Seed derives every fault schedule. Two runs with the same seed
	// (and fleet topology) draw identical schedules.
	Seed uint64
	// Drop silently discards a frame (the coordinator sees a worker
	// that stops reporting — hang territory).
	Drop float64
	// Dup forwards a frame twice (exercises duplicate-tolerant Adopt).
	Dup float64
	// Corrupt flips one byte of a frame's payload (malformed stream or
	// digest mismatch; either way the worker is declared corrupt).
	Corrupt float64
	// Truncate forwards a prefix of a frame and severs the stream (a
	// torn stream cannot be resynced).
	Truncate float64
	// Delay holds a frame for up to DelayMax before forwarding.
	Delay    float64
	DelayMax time.Duration
	// Kill severs the transport and kills the worker before a frame.
	Kill float64
	// Hang goes silent before a frame: nothing is forwarded until the
	// coordinator's HangTimeout kills the worker.
	Hang float64
}

// Default is the profile the `nf-bench sweep -chaos <seed>` flag uses:
// frequent small delays, occasional drops and duplicates, rare
// corruption, truncation, kills, and hangs — enough that a 100-cell
// sweep sees several faults of most kinds without spending its whole
// life in recovery.
func Default(seed uint64) Config {
	return Config{
		Seed:     seed,
		Drop:     0.02,
		Dup:      0.03,
		Corrupt:  0.01,
		Truncate: 0.005,
		Delay:    0.08,
		DelayMax: 30 * time.Millisecond,
		Kill:     0.01,
		Hang:     0.003,
	}
}

// rng is the deterministic fault stream: splitmix64 over a counter, so
// a schedule can be replayed without carrying generator state around.
type rng struct {
	base uint64
	n    uint64
}

func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{base: h.Sum64() ^ seed}
}

func (r *rng) next() uint64 {
	r.n++
	return mix64(r.base + r.n*0x9e3779b97f4a7c15)
}

// chance draws once, always — fixed draw count is what makes the
// schedule a function of frame index alone.
func (r *rng) chance(p float64) bool {
	v := float64(r.next()>>11) / float64(1<<53)
	return p > 0 && v < p
}

func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fate is one frame's fault decision.
type fate struct {
	kill, hang, drop, truncate, corrupt, delay, dup bool
	aux                                             uint64 // parameter entropy: positions, bit index, delay
}

// draw consumes exactly eight rng values whatever the frame holds.
func (r *rng) draw(cfg Config) fate {
	return fate{
		kill:     r.chance(cfg.Kill),
		hang:     r.chance(cfg.Hang),
		drop:     r.chance(cfg.Drop),
		truncate: r.chance(cfg.Truncate),
		corrupt:  r.chance(cfg.Corrupt),
		delay:    r.chance(cfg.Delay),
		dup:      r.chance(cfg.Dup),
		aux:      r.next(),
	}
}

// Wrap returns ep with chaos injected on its worker→coordinator frame
// stream. stream names the rng stream (use the worker name plus an
// incarnation counter — see WrapDial); the coordinator-to-worker
// direction passes through untouched, since killing and hanging the
// reply stream already covers "the coordinator cannot reach the
// worker" from the only perspective the fleet acts on.
func Wrap(ep *shard.Endpoint, cfg Config, stream string) *shard.Endpoint {
	r := newRNG(cfg.Seed, stream)
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
			ft := r.draw(cfg)
			switch {
			case ft.kill:
				_ = kill()
				return
			case ft.hang:
				// Silence, not teardown: the stream stays open and
				// nothing moves until someone kills the worker.
				<-killed
				return
			case ft.drop:
				continue
			case ft.truncate && len(frame) > 5:
				cut := 5 + int(ft.aux%uint64(len(frame)-5))
				_, _ = pw.Write(frame[:cut])
				_ = kill()
				return
			}
			if ft.corrupt && len(frame) > 4 {
				pos := 4 + int(ft.aux%uint64(len(frame)-4))
				frame[pos] ^= byte(1 << (mix64(ft.aux) % 8))
			}
			if ft.delay && cfg.DelayMax > 0 {
				d := time.Duration(mix64(ft.aux+1) % uint64(cfg.DelayMax))
				select {
				case <-time.After(d):
				case <-killed:
					return
				}
			}
			if _, err := pw.Write(frame); err != nil {
				return
			}
			if ft.dup {
				if _, err := pw.Write(frame); err != nil {
					return
				}
			}
		}
	}()
	return &shard.Endpoint{Name: ep.Name, In: ep.In, Out: pr, Kill: kill, Wait: ep.Wait}
}

// WrapDial decorates a connector's dial so every incarnation gets its
// own deterministic fault stream: incarnation k of worker name draws
// from stream "name#k" whatever wall-clock order redials happen in.
func WrapDial(name string, dial func() (*shard.Endpoint, error), cfg Config) func() (*shard.Endpoint, error) {
	var inc atomic.Int64
	return func() (*shard.Endpoint, error) {
		ep, err := dial()
		if err != nil {
			return nil, err
		}
		return Wrap(ep, cfg, fmt.Sprintf("%s#%d", name, inc.Add(1))), nil
	}
}

// readRaw reads one length-prefixed frame as raw bytes, header
// included, without decoding it — chaos faults bytes, not structures.
func readRaw(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > shard.MaxFrame {
		return nil, fmt.Errorf("chaos: inner frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, 4+int(n))
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return nil, err
	}
	return buf, nil
}
