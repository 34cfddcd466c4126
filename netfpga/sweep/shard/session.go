package shard

import (
	"repro/netfpga/sweep"
)

// Command is the coordinator-to-worker envelope of the session
// protocol (see the package comment): exactly one field set.
type Command struct {
	Open   *Request `json:"open,omitempty"`
	Assign *Assign  `json:"assign,omitempty"`
	Close  bool     `json:"close,omitempty"`
}

// Assign hands a worker a chunk of cells to execute. An older
// coordinator's migrate_after key is ignored on decode.
type Assign struct {
	Keys []string `json:"keys"`
}

// Hello is the worker's session acceptance: how many cells its
// independently compiled plan holds and which digest version it stamps
// records with (the coordinator refuses a worker that disagrees on
// either — a config or version skew would otherwise surface as digest
// mismatches mid-run), and how wide its local pool is (the coordinator
// keeps two cells in flight per pool goroutine). An older worker sends
// no digest version, which is version 1.
type Hello struct {
	Cells   int `json:"cells"`
	Workers int `json:"workers"`
	Digest  int `json:"digest"`
}

// Reject reports an assigned cell this worker could not run: a key its
// plan does not hold. The cell is unharmed — the coordinator requeues
// it — but the rejection is evidence of worker divergence worth
// surfacing.
type Reject struct {
	Key    string `json:"key"`
	Reason string `json:"reason"`
}

// SessionDone is the worker's Close acknowledgement: how many cells it
// completed (Cell frames sent) and how its local pool spent the
// session.
type SessionDone struct {
	Cells int                     `json:"cells"`
	Util  sweep.UtilizationReport `json:"util"`
}

// SessionFrame is the worker-to-coordinator envelope of the session
// protocol: exactly one field set.
type SessionFrame struct {
	Hello  *Hello            `json:"hello,omitempty"`
	Cell   *sweep.CellRecord `json:"cell,omitempty"`
	Reject *Reject           `json:"reject,omitempty"`
	Done   *SessionDone      `json:"done,omitempty"`
	Err    string            `json:"err,omitempty"`
}
