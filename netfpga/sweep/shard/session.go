package shard

import (
	"repro/netfpga"
	"repro/netfpga/fleet"
	"repro/netfpga/sweep"
)

// Command is the coordinator-to-worker envelope of the session
// protocol (see the package comment): exactly one field set.
type Command struct {
	Open   *Request    `json:"open,omitempty"`
	Assign *Assign     `json:"assign,omitempty"`
	Resume *Checkpoint `json:"resume,omitempty"`
	Steal  bool        `json:"steal,omitempty"`
	Close  bool        `json:"close,omitempty"`
}

// Assign hands a worker a chunk of cells to execute. With MigrateAfter
// set, every cell in the chunk parks once at that cumulative
// executed-event count and comes back as a Checkpoint instead of a Cell
// — the forced-migration knob the determinism gates use to exercise the
// migration path on every cell.
type Assign struct {
	Keys         []string `json:"keys"`
	MigrateAfter uint64   `json:"migrate_after,omitempty"`
}

// Checkpoint is a partially executed cell in flight between workers:
// the cell's canonical key plus the parked device's ParkState. The
// state transfers by deterministic replay — the receiver rebuilds the
// cell's device from (config, key, seed), replays to exactly
// State.Executed events, and must reproduce State.Digest bit-exactly
// before continuing — so a checkpoint is valid on any worker and a
// diverged or forged one can never resume.
type Checkpoint struct {
	Key   string            `json:"key"`
	State netfpga.ParkState `json:"state"`
}

// Hello is the worker's session acceptance: how many cells its
// independently compiled plan holds (the coordinator refuses a worker
// that disagrees — a config or version skew would otherwise surface as
// digest mismatches mid-run) and how wide its local pool is.
type Hello struct {
	Cells   int `json:"cells"`
	Workers int `json:"workers"`
}

// Reject reports a Resume whose replay did not verify against the
// checkpoint digest. The cell is unharmed — the coordinator requeues it
// as a fresh cell — but the rejection is evidence of worker divergence
// worth surfacing.
type Reject struct {
	Key    string `json:"key"`
	Reason string `json:"reason"`
}

// SessionDone is the worker's Close acknowledgement: how many cells it
// completed (Cell frames sent) and how its local pool spent the
// session.
type SessionDone struct {
	Cells int                     `json:"cells"`
	Util  fleet.UtilizationReport `json:"util"`
}

// SessionFrame is the worker-to-coordinator envelope of the session
// protocol: exactly one field set.
type SessionFrame struct {
	Hello      *Hello            `json:"hello,omitempty"`
	Cell       *sweep.CellRecord `json:"cell,omitempty"`
	Checkpoint *Checkpoint       `json:"checkpoint,omitempty"`
	Reject     *Reject           `json:"reject,omitempty"`
	Done       *SessionDone      `json:"done,omitempty"`
	Err        string            `json:"err,omitempty"`
}
