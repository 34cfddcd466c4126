package lib

import (
	"encoding/binary"

	"repro/netfpga/hw"
)

// TimestampMode selects where the Timestamper records time.
type TimestampMode int

// Modes.
const (
	// StampMeta records the time in Meta.Ingress only.
	StampMeta TimestampMode = iota
	// StampPayload writes a 64-bit picosecond timestamp into the packet
	// at a configurable byte offset — OSNT's mechanism for measuring
	// one-way latency: the generator stamps on TX, the monitor extracts
	// on RX.
	StampPayload
)

// Timestamper stamps frames as they pass. Its clock resolution is the
// datapath clock (5 ns at 200 MHz), which bounds the measurement error of
// the OSNT latency experiments exactly as the hardware's does.
type Timestamper struct {
	name   string
	d      *hw.Design
	in     *hw.Stream
	out    *hw.Stream
	mode   TimestampMode
	offset uint32 // payload byte offset for StampPayload

	hold *hw.Frame
	emit hw.Emitter
	pkts uint64
	ctrs hw.Counters
}

// NewTimestamper creates the module. For StampPayload, offset is where
// the 8-byte big-endian timestamp lands (frames too short pass
// unstamped).
func NewTimestamper(d *hw.Design, name string, in, out *hw.Stream, mode TimestampMode, offset uint32) *Timestamper {
	t := &Timestamper{name: name, d: d, in: in, out: out, mode: mode, offset: offset}
	t.ctrs.Add("pkts", &t.pkts)
	d.AddModule(t)
	d.Consume(t, in)
	return t
}

// Name implements hw.Module.
func (t *Timestamper) Name() string { return t.name }

// Resources implements hw.Module.
func (t *Timestamper) Resources() hw.Resources {
	return hw.Resources{LUTs: 800, FFs: 1400}
}

// quantize rounds down to the datapath clock period, the hardware
// counter's resolution.
func (t *Timestamper) quantize(at hw.Time) hw.Time {
	p := t.d.Clock().Period()
	return at / p * p
}

// Tick implements hw.Module. StampMeta is cut-through (metadata-only);
// StampPayload buffers the frame because it mutates bytes.
func (t *Timestamper) Tick() bool {
	busy := false
	switch t.mode {
	case StampMeta:
		if t.in.CanPop() && t.out.CanPush() {
			b := t.in.Pop()
			if b.First() {
				b.Frame.Meta.Ingress = t.quantize(t.d.Now())
				b.Frame.Meta.Flags |= hw.FlagTimestamped
				t.pkts++
			}
			t.out.Push(b)
			busy = true
		}
		return busy || t.in.CanPop()

	case StampPayload:
		if pushed, _ := t.emit.Emit(t.out, t.d.BusBytes()); pushed {
			busy = true
		}
		if t.hold == nil {
			if f, done := (collectFrame{}).collect(t.in); done {
				t.hold = f
				busy = true
			}
		}
		if t.hold != nil && !t.emit.Active() {
			f := t.hold
			t.hold = nil
			if int(t.offset)+8 <= len(f.Data) {
				binary.BigEndian.PutUint64(f.Data[t.offset:], uint64(t.quantize(t.d.Now())))
				f.Meta.Flags |= hw.FlagTimestamped
				t.pkts++
			}
			t.emit.Start(f)
			busy = true
		}
		return busy || t.in.CanPop() || t.hold != nil || t.emit.Active()
	}
	return false
}

// Rates implements hw.Rater. StampMeta stamps a first beat with the
// cycle it passes on, so while it holds a beat every cycle is a Tick.
// StampPayload streams the stamped frame, collects the next one beat by
// beat until its Last (the stamp decision) and holds its input while a
// collected frame waits: a held frame is always behind an active
// emitter, since the Tick that collects it starts it otherwise.
func (t *Timestamper) Rates(w *hw.Window) {
	if t.mode == StampMeta {
		if t.in.CanPop() {
			w.Horizon(1)
		}
		return
	}
	if t.emit.Active() {
		w.Push(t.out, &t.emit)
	}
	if t.hold == nil {
		w.Drain(t.in)
	} else {
		w.Hold(t.in)
	}
}

// ExtractPayloadTimestamp reads a timestamp written by StampPayload mode.
func ExtractPayloadTimestamp(data []byte, offset uint32) (hw.Time, bool) {
	if int(offset)+8 > len(data) {
		return 0, false
	}
	return hw.Time(binary.BigEndian.Uint64(data[offset:])), true
}

// Reset implements hw.Resetter: the held and the streaming frame go
// back to the design's pool.
func (t *Timestamper) Reset() {
	pool := t.d.Pool()
	pool.Put(t.hold)
	t.emit.Drop(pool)
	t.hold, t.pkts = nil, 0
}

// Counters implements hw.CounterSource.
func (t *Timestamper) Counters() *hw.Counters { return &t.ctrs }
