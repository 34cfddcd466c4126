// Package blueswitch reproduces BlueSwitch (Han et al., ANCS 2015; paper
// reference [2]): a multi-table match-action switch whose configuration
// updates are *provably consistent* — every packet is processed entirely
// by the old policy or entirely by the new one, never a mixture.
//
// The mechanism is double-banked tables with an ingress version latch:
// an update is staged into the inactive bank of every table and committed
// by flipping a single version register; each packet latches the version
// at its first table and uses that bank at every subsequent table. For
// comparison, the package also implements the naive baseline — in-place
// table-by-table rewriting — and instruments the pipeline to count
// packets that observed mixed policy versions, the quantity BlueSwitch
// drives to zero.
package blueswitch

import (
	"encoding/binary"
	"fmt"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/lib"
)

// Mode selects the update discipline.
type Mode int

// Update modes.
const (
	// Versioned is the BlueSwitch mechanism: double-banked tables with
	// an atomic version flip.
	Versioned Mode = iota
	// Naive rewrites the live tables in place, one table at a time —
	// the baseline whose inconsistency the experiments count.
	Naive
)

// FieldSel selects the field a table matches on.
type FieldSel int

// Match fields.
const (
	MatchInPort FieldSel = iota
	MatchEthType
	MatchEthDst
	MatchIPDst
	MatchTag // pipeline metadata tag set by an earlier table
)

// Action is a matched rule's consequence.
type Action struct {
	// SetTag stores a tag in packet metadata when HasTag.
	SetTag uint32
	HasTag bool
	// Output sets the destination port mask when HasOutput.
	Output    uint32
	HasOutput bool
	// Drop discards the packet immediately.
	Drop bool
}

// Rule is one table entry.
type Rule struct {
	Key    uint64
	Action Action
}

// TableSnapshot is one table's full contents in a policy.
type TableSnapshot struct {
	Rules []Rule
	// Default applies on miss; the zero Action means drop.
	Default Action
}

// Policy is a full-pipeline configuration, one snapshot per table.
type Policy []TableSnapshot

// Meta.User layout: bit 0 = latched bank, bit 1 = latch valid,
// bits 8..31 = tag.
const (
	userBankBit  = 1 << 0
	userLatched  = 1 << 1
	userTagShift = 8
)

// pipeBit is a reserved destination bit meaning "still in the pipeline,
// no output decided yet"; the final stage clears it.
const pipeBit = uint32(1 << 31)

// table is one double-banked match stage.
type table struct {
	sel   FieldSel
	banks [2]map[uint64]Action
	def   [2]Action
	// epoch tracks the policy generation present in each bank; the
	// violation instrumentation compares epochs across stages.
	epoch [2]uint64

	lookups, hits, misses uint64
}

func newTable(sel FieldSel) *table {
	return &table{sel: sel, banks: [2]map[uint64]Action{{}, {}}}
}

// load replaces one bank's contents.
func (t *table) load(bank int, snap TableSnapshot, epoch uint64) {
	m := make(map[uint64]Action, len(snap.Rules))
	for _, r := range snap.Rules {
		m[r.Key] = r.Action
	}
	t.banks[bank] = m
	t.def[bank] = snap.Default
	t.epoch[bank] = epoch
}

// Config parameterises the switch.
type Config struct {
	Mode Mode
	// Selectors define the table pipeline; default is the two-table
	// tag pipeline [MatchEthType, MatchTag] used in the consistency
	// experiments.
	Selectors []FieldSel
	// StageLatency is each table's pipeline depth in cycles (0 means 8).
	// Longer stages widen the in-flight window the naive update corrupts.
	StageLatency int
}

// Project is the BlueSwitch design.
type Project struct {
	cfg    Config
	tables []*table
	// version is the active bank (register-backed).
	version uint32
	// epoch counts policy generations.
	epoch uint64

	violations uint64 // packets that saw mixed epochs
	dev        *netfpga.Device
	finalDrops uint64
	ctrs       hw.Counters
}

// New returns a BlueSwitch project.
func New(cfg Config) *Project {
	if len(cfg.Selectors) == 0 {
		cfg.Selectors = []FieldSel{MatchEthType, MatchTag}
	}
	if cfg.StageLatency == 0 {
		cfg.StageLatency = 8
	}
	p := &Project{cfg: cfg}
	p.ctrs.Grow(2 + 3*len(cfg.Selectors))
	p.ctrs.Add("violations", &p.violations)
	p.ctrs.Add("final_drops", &p.finalDrops)
	for i, sel := range cfg.Selectors {
		t := newTable(sel)
		p.tables = append(p.tables, t)
		p.ctrs.Add(tableLookupsNames.At(i), &t.lookups)
		p.ctrs.Add(tableHitsNames.At(i), &t.hits)
		p.ctrs.Add(tableMissesNames.At(i), &t.misses)
	}
	return p
}

// Name implements netfpga.Project.
func (p *Project) Name() string { return "blueswitch" }

// Description implements netfpga.Project.
func (p *Project) Description() string {
	return "BlueSwitch: multi-table match-action pipeline with provably consistent (versioned) configuration updates"
}

// Reset implements hw.Resetter: every bank empty, no policy generation
// loaded, counters zero. The active bank is the active_bank register's,
// which the device's register map restores; naive updates still pending
// go with the simulator's timers.
func (p *Project) Reset() {
	for _, t := range p.tables {
		for b := range t.banks {
			clear(t.banks[b])
		}
		t.def, t.epoch = [2]Action{}, [2]uint64{}
		t.lookups, t.hits, t.misses = 0, 0, 0
	}
	p.epoch = 0
	p.violations, p.finalDrops = 0, 0
}

// Violations returns the count of packets that observed a mixed policy.
func (p *Project) Violations() uint64 { return p.violations }

// Build implements netfpga.Project: the reference pipeline with one
// lookup stage per table.
func (p *Project) Build(dev *netfpga.Device) error {
	p.dev = dev
	stages := make([]lib.Stage, len(p.tables))
	for k := range stages {
		res := hw.Resources{LUTs: 5200, FFs: 6400, BRAM36: 26} // two banks
		stages[k] = lib.Lookup(fmt.Sprintf("flow_table_%d", k), p.stageLookup(k), p.cfg.StageLatency, res)
	}
	if _, err := lib.BuildReference(dev, lib.PipelineConfig{Stages: stages}); err != nil {
		return fmt.Errorf("blueswitch: %w", err)
	}

	rf := hw.NewRegisterFile("blueswitch")
	rf.AddVar(0x0, "active_bank", &p.version)
	rf.AddCounters(0x8, p.ctrs.List()[0]) // violations
	rf.AddRO(0x10, "tables", func() uint32 { return uint32(len(p.tables)) })
	dev.MountRegs(rf)
	return nil
}

// extractKey pulls the match field from a frame the way the hardware
// parser does — fixed offsets, no allocation.
func extractKey(f *hw.Frame, sel FieldSel) (uint64, bool) {
	switch sel {
	case MatchInPort:
		return uint64(f.Meta.SrcPort), true
	case MatchTag:
		return uint64(f.Meta.User >> userTagShift), true
	case MatchEthType:
		if len(f.Data) < 14 {
			return 0, false
		}
		return uint64(binary.BigEndian.Uint16(f.Data[12:14])), true
	case MatchEthDst:
		if len(f.Data) < 6 {
			return 0, false
		}
		return uint64(binary.BigEndian.Uint32(f.Data[0:4]))<<16 |
			uint64(binary.BigEndian.Uint16(f.Data[4:6])), true
	case MatchIPDst:
		if len(f.Data) < 34 || binary.BigEndian.Uint16(f.Data[12:14]) != 0x0800 {
			return 0, false
		}
		return uint64(binary.BigEndian.Uint32(f.Data[30:34])), true
	}
	return 0, false
}

// stageLookup builds table k's decision function.
func (p *Project) stageLookup(k int) lib.LookupFunc {
	t := p.tables[k]
	last := k == len(p.tables)-1
	return func(f *hw.Frame) lib.Verdict {
		// Bank selection: this is the consistency mechanism.
		var bank int
		if k == 0 {
			bank = int(p.version) & 1
			f.Meta.User = uint32(bank)&userBankBit | userLatched
		} else if p.cfg.Mode == Versioned {
			bank = int(f.Meta.User & userBankBit)
		} else {
			// Naive: every stage reads the live bank at its own time.
			bank = int(p.version) & 1
		}
		// Violation instrumentation: compare the epoch this stage
		// applies with the epoch the packet saw at stage 0 (stored by
		// epoch marker below).
		if k == 0 {
			f.Meta.TraceID = t.epoch[bank] // first-seen policy epoch
		} else if t.epoch[bank] != f.Meta.TraceID {
			p.violations++
		}

		t.lookups++
		key, ok := extractKey(f, t.sel)
		act, found := Action{}, false
		if ok {
			act, found = t.banks[bank][key]
		}
		if !found {
			t.misses++
			act = t.def[bank]
		} else {
			t.hits++
		}
		if act.Drop {
			return lib.Drop
		}
		if act.HasTag {
			f.Meta.User = f.Meta.User&0xFF | act.SetTag<<userTagShift
		}
		if act.HasOutput {
			f.Meta.DstPorts = act.Output
		}
		if !last {
			// Keep the frame alive through intermediate stages even
			// before an output is decided.
			f.Meta.DstPorts |= pipeBit
			return lib.Forward
		}
		f.Meta.DstPorts &^= pipeBit
		if f.Meta.DstPorts == 0 {
			p.finalDrops++
			return lib.Drop
		}
		return lib.Forward
	}
}

// StageUpdate writes a policy into every table's inactive bank. It is
// safe under traffic: in-flight packets only read the active bank.
func (p *Project) StageUpdate(pol Policy) error {
	if len(pol) != len(p.tables) {
		return fmt.Errorf("blueswitch: policy has %d tables, pipeline has %d", len(pol), len(p.tables))
	}
	p.epoch++
	inactive := int(p.version^1) & 1
	for i, t := range p.tables {
		t.load(inactive, pol[i], p.epoch)
	}
	return nil
}

// Commit atomically activates the staged policy: one register write, the
// BlueSwitch consistency guarantee.
func (p *Project) Commit() { p.version ^= 1 }

// InstallInitial loads a policy into the active bank before traffic
// starts (initial configuration, not an update).
func (p *Project) InstallInitial(pol Policy) error {
	if len(pol) != len(p.tables) {
		return fmt.Errorf("blueswitch: policy has %d tables, pipeline has %d", len(pol), len(p.tables))
	}
	active := int(p.version) & 1
	for i, t := range p.tables {
		t.load(active, pol[i], p.epoch)
	}
	return nil
}

// ApplyNaive performs the baseline update: rewrite the ACTIVE bank of
// each table in place, one table every perTableDelay of simulated time
// (control-plane write latency). Packets in flight between stages during
// the window observe mixed policy.
func (p *Project) ApplyNaive(pol Policy, perTableDelay netfpga.Time) error {
	if len(pol) != len(p.tables) {
		return fmt.Errorf("blueswitch: policy has %d tables, pipeline has %d", len(pol), len(p.tables))
	}
	p.epoch++
	epoch := p.epoch
	active := int(p.version) & 1
	for i, t := range p.tables {
		i, t := i, t
		p.dev.Sim.At(p.dev.Now()+netfpga.Time(i)*perTableDelay, func() {
			t.load(active, pol[i], epoch)
		})
	}
	return nil
}

// Per-table counter names.
var (
	tableLookupsNames = hw.NewNameTable("t%d_lookups", 8)
	tableHitsNames    = hw.NewNameTable("t%d_hits", 8)
	tableMissesNames  = hw.NewNameTable("t%d_misses", 8)
)

// Counters implements hw.CounterSource: the consistency counters, then
// per-table lookup counters.
func (p *Project) Counters() *hw.Counters { return &p.ctrs }

// TagForwardPolicy builds the two-table experiment policy: EtherType
// ethType gets tag, and tag routes to outPort. Everything else drops.
func TagForwardPolicy(ethType uint16, tag uint32, outPort int) Policy {
	return Policy{
		{Rules: []Rule{{Key: uint64(ethType), Action: Action{SetTag: tag, HasTag: true}}}},
		{Rules: []Rule{{Key: uint64(tag), Action: Action{Output: hw.PortMask(outPort), HasOutput: true}}}},
	}
}
