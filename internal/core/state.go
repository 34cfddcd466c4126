package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
)

// ParkState is the serializable checkpoint identity of a parked
// device: where it stopped (simulated time and cumulative executed
// events) and a digest of its complete counter state at that quiescent
// point. It is what crosses a process or network boundary
// when a partially executed device migrates between execution engines.
//
// The state *transfer* is deterministic replay, not memory copy: the
// receiver rebuilds the device from the same (job, seed), re-executes
// to exactly Executed events — bit-exact by the segment-equivalence
// guarantee — and proves it reached the same state by recomputing
// Digest. A checkpoint therefore costs O(identity) on the wire and
// O(replay) on arrival, and a forged or drifted checkpoint can never
// verify.
type ParkState struct {
	// NowPS is the device's simulated time at the park point.
	NowPS int64 `json:"now_ps"`
	// Executed is the cumulative executed-event count at the park
	// point. Parks happen only between events (segment yields), so this
	// pins a unique quiescent state.
	Executed uint64 `json:"executed"`
	// Digest is StateDigest of the device's full counter snapshot at
	// the park point.
	Digest string `json:"digest"`
}

// StateDigest hashes a counter snapshot canonically (sorted keys,
// fixed-width values): two devices agree on it iff they agree on every
// counter the snapshot covers.
func StateDigest(snap map[string]uint64) string {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var v [8]byte
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'='})
		binary.BigEndian.PutUint64(v[:], snap[k])
		h.Write(v[:])
		h.Write([]byte{'\n'})
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// EncodeState captures the device's checkpoint identity. Call it only
// with the simulation quiescent — between events: inside a segment
// yield, or between runs.
func (d *Device) EncodeState() ParkState {
	return ParkState{
		NowPS:    int64(d.Now()),
		Executed: d.Sim.Executed(),
		Digest:   StateDigest(d.Snapshot()),
	}
}

// VerifyState checks that the device currently sits bit-exactly at st:
// same simulated time, same executed-event count, same counter digest.
// A mismatch means the two placements diverged (different build, seed,
// or a tampered checkpoint) and the checkpoint must not be resumed.
func (d *Device) VerifyState(st ParkState) error {
	if now := int64(d.Now()); now != st.NowPS {
		return fmt.Errorf("core: checkpoint time %d ps, device at %d ps", st.NowPS, now)
	}
	if ex := d.Sim.Executed(); ex != st.Executed {
		return fmt.Errorf("core: checkpoint at %d executed events, device at %d", st.Executed, ex)
	}
	if got := StateDigest(d.Snapshot()); got != st.Digest {
		return fmt.Errorf("core: checkpoint state digest %s does not match device state %s", st.Digest, got)
	}
	return nil
}
