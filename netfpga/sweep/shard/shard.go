// Package shard is the run path of scenario sweeps: a Fleet coordinator
// opens a session on every worker (an in-process PipeWorker, spawned
// subprocesses, TCP dials, or a mix), hands the plan's cells out by
// canonical key as workers drain them, and merges the streamed cell
// records back into one result set with digests byte-identical to a
// single-process run. `nf-bench` runs every sweep this way; a session
// worker runs its cells on the plan's own pool (sweep.Plan.Pool), the
// one sweep.Runner's batches run on, and a cell runs from its first
// event to its last on the worker that claimed it.
//
// There is one wire protocol: length-prefixed JSON frames, the same on
// the stdin/stdout pipes of a spawned `nf-bench shard-worker` and on a
// TCP or TLS connection to `nf-bench shard-worker -listen`. Anything a
// worker prints to stderr passes through untouched for debugging. The
// per-cell frames, Cell and Assign, are written and read by canonjson
// in the bytes encoding/json has for them; a Cell frame carries the
// record in sweep.CellRecord's field order, the one the result store
// keeps it in. Every other frame, and any hot frame canonjson declines
// (an older peer's digest-last Cell frame among them), goes through
// encoding/json itself.
//
// Coordinator -> worker, each as one Command frame:
//
//	Open    start a session: plan this config (a Request, in full)
//	Assign  execute these cells, streaming a Cell frame per completion
//	Close   finish in-flight work, report Done, end the session
//
// Worker -> coordinator, each as one SessionFrame:
//
//	Hello   session accepted: plan size + digest version + local pool width
//	Cell    one completed cell record (digest-stamped)
//	Reject  an assigned cell this worker cannot run; the fleet requeues it
//	Done    session end: cells completed + utilization report
//	Err     fatal session failure
//
// The stream stays open in both directions for the whole run, which is
// what makes death recovery (requeue what a dead worker still owed)
// possible.
//
// Determinism is inherited, not negotiated: cell seeds derive from
// (base seed, canonical key) and never from placement, so the records a
// worker produces are byte-identical to what the same cells produce
// in-process — the coordinator recomputes every digest from the
// received content and refuses records that do not survive the wire.
package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/canonjson"
	"repro/netfpga/sweep"
)

// MaxFrame bounds a frame's payload; a length prefix beyond it aborts
// the stream (corrupt peer, not a sweep that big). The bound is checked
// before any allocation, so a corrupt or hostile prefix can never make
// the reader allocate an attacker-sized buffer.
const MaxFrame = 64 << 20

// FrameError marks a malformed frame stream: a length prefix over
// MaxFrame, a truncated payload, or bytes that do not decode. It is a
// peer-integrity failure, not an execution failure — a coordinator maps
// it to "this worker is corrupt: kill it and requeue its cells", never
// to aborting the whole run.
type FrameError struct {
	Reason string
	Err    error
}

func (e *FrameError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("shard: %s: %v", e.Reason, e.Err)
	}
	return "shard: " + e.Reason
}

func (e *FrameError) Unwrap() error { return e.Err }

// ErrFrameTooLarge is the FrameError cause for a length prefix beyond
// MaxFrame.
var ErrFrameTooLarge = errors.New("frame length exceeds limit")

// Request is a sweep's run config, and the Open frame that carries it
// to a worker: which config to plan, how to filter and seed it, and how
// to execute cells on a local pool. The CLI fills one Request from its
// flags; the coordinator and every worker read the same value.
type Request struct {
	// Config is the sweep config file path (the worker re-plans it
	// independently; plans are pure functions of config+filter+seed).
	Config string `json:"config"`
	// Filter is the cell filter expression ("" = full).
	Filter string `json:"filter,omitempty"`
	// Seed is the base seed cell seeds derive from.
	Seed uint64 `json:"seed"`
	// Workers is the width of the local pool (sweep.Runner semantics).
	// An older peer's clock_batch, frame_burst, segment and
	// segment_budget keys are ignored on decode: results never depended
	// on them. So is its fidelity key: a cell's fidelity is its key's,
	// set by the spec's fidelities axis.
	Workers int `json:"workers,omitempty"`
}

// WriteFrame marshals v and writes it as one length-prefixed frame.
func WriteFrame(w io.Writer, v any) error {
	buf, ok := appendHot(make([]byte, 4, 512), v)
	if !ok {
		data, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("shard: encoding frame: %w", err)
		}
		buf = append(buf[:4], data...)
	}
	n := len(buf) - 4
	if n > MaxFrame {
		return fmt.Errorf("shard: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one length-prefixed frame into v. io.EOF is returned
// unwrapped when the stream ends cleanly between frames; every
// malformed-stream failure (truncated header, oversized prefix,
// truncated payload, undecodable bytes) is a *FrameError. A Cell
// frame's value and label keys are copies, not slices of the frame.
func ReadFrame(r io.Reader, v any) error { return readFrame(r, v, nil) }

// readFrame is ReadFrame with the table a Cell frame's value and label
// keys are interned in: a session reader keeps one for its stream, so
// its records share one copy of each key.
func readFrame(r io.Reader, v any, tab *canonjson.Table) error {
	buf, err := readRaw(r)
	if err != nil {
		return err
	}
	if readHot(buf[4:], v, tab) {
		return nil
	}
	if err := json.Unmarshal(buf[4:], v); err != nil {
		return &FrameError{Reason: "decoding frame", Err: err}
	}
	return nil
}

// readRaw reads one length-prefixed frame as raw bytes, header
// included, without decoding it, failing as ReadFrame does.
func readRaw(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		// A partial header is a torn stream, not a clean end: type it so
		// fuzzers and fault handlers can rely on every malformed byte
		// sequence surfacing as a *FrameError.
		return nil, &FrameError{Reason: "reading frame header", Err: err}
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, &FrameError{Reason: fmt.Sprintf("frame length %d", n), Err: ErrFrameTooLarge}
	}
	buf := make([]byte, 4+int(n))
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return nil, &FrameError{Reason: fmt.Sprintf("reading %d-byte frame", n), Err: err}
	}
	return buf, nil
}

// The hot frames' envelopes around what canonjson writes and reads.
const cellOpen, assignOpen = `{"cell":`, `{"assign":{"keys":`

// appendHot appends a SessionFrame carrying only Cell, or a Command
// carrying only Assign, as json.Marshal writes it. It reports false for
// any other frame and for a record canonjson declines.
func appendHot(b []byte, v any) ([]byte, bool) {
	switch f := v.(type) {
	case SessionFrame:
		if r := f.Cell; r != nil && f == (SessionFrame{Cell: r}) {
			b, ok := canonjson.AppendCell(append(b, cellOpen...), r)
			return append(b, '}'), ok
		}
	case Command:
		if f.Assign != nil && f == (Command{Assign: f.Assign}) {
			b, ok := canonjson.AppendStrings(append(b, assignOpen...), f.Assign.Keys)
			return append(b, "}}"...), ok
		}
	}
	return b, false
}

// readHot decodes a Cell frame or an Assign command in canonjson's
// canonical layout into v, as json.Unmarshal would, when v's field is
// nil, interning a cell's map keys and labels in tab. It reports false,
// leaving v untouched, for anything else.
func readHot(p []byte, v any, tab *canonjson.Table) bool {
	switch f := v.(type) {
	case *SessionFrame:
		c := new(sweep.CellRecord)
		ok := f.Cell == nil && canonjson.ParseCell(string(p), cellOpen, "}", c, tab)
		if ok {
			f.Cell = c
		}
		return ok
	case *Command:
		keys, ok := canonjson.ParseStrings(string(p), assignOpen, "}}")
		if ok = ok && f.Assign == nil; ok {
			f.Assign = &Assign{Keys: keys}
		}
		return ok
	}
	return false
}
