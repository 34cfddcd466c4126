package projects

import (
	"testing"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/projects/switchp"
)

// TestEveryModuleDeclaresRates builds every shipped project on every
// board it fits, and the reference switch behind a user firewall as
// examples/custom-module builds it, and requires each module to be an
// hw.Rater under a name no other module of its design uses. A module
// that declares no rate forces per-cycle ticking whenever it is
// runnable, and a shared name folds its counters and tick counts into
// another module's (Design.AddStats, ModuleTicks). The design keeps its
// path for undeclared modules for user code; nothing shipped takes it.
func TestEveryModuleDeclaresRates(t *testing.T) {
	designs := map[string]func() netfpga.Project{
		"firewalled_switch": func() netfpga.Project { return firewalledSwitch{switchp.New(switchp.Config{})} },
	}
	for _, e := range All() {
		designs[e.Name] = e.New
	}
	for name, mk := range designs {
		built := 0
		for _, board := range netfpga.Boards() {
			dev := netfpga.NewDevice(board, netfpga.Options{})
			if err := mk().Build(dev); err != nil {
				continue // the design does not build on this board
			}
			built++
			seen := map[string]bool{}
			for _, m := range dev.Dsn.Modules() {
				if _, ok := m.(hw.Rater); !ok {
					t.Errorf("%s on %s: module %s (%T) declares no rates", name, board.Name, m.Name(), m)
				}
				if seen[m.Name()] {
					t.Errorf("%s on %s: module name %s is used twice", name, board.Name, m.Name())
				}
				seen[m.Name()] = true
			}
		}
		if built == 0 {
			t.Errorf("%s builds on no board", name)
		}
	}
}
