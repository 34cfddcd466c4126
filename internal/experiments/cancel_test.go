package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/netfpga"
	"repro/netfpga/sweep"
)

// TestMeasuresStopAtCancel: a batch canceled while a cell runs stops the
// cell's paced loop at the end of the step the cancel lands in, whatever
// the measure: GenericMeasure drawing inline and drawing ahead,
// LatencyMeasure, T1 (measureGoodput) and T3's host pump. The cancel is
// an event on the cell's own device, so it lands at the same simulated
// instant on every run; each cell must end within one step of it.
func TestMeasuresStopAtCancel(t *testing.T) {
	switchSpec := func(name string, windowUS int) sweep.Spec {
		return sweep.Spec{
			Name: name, Boards: []string{"sume"}, Projects: []string{"reference_switch"},
			Workloads: []sweep.Workload{{Name: "imix", Flows: 8}}, WindowUS: windowUS,
		}
	}
	cases := []struct {
		name     string
		group    sweep.Group
		cancelAt netfpga.Time
		step     netfpga.Time
		wantErr  error // nil: the cell reports what it counted by then
	}{
		{"generic inline", sweep.Group{Spec: switchSpec("inline", 2000), Measure: sweep.GenericMeasure},
			305 * netfpga.Microsecond, 10 * netfpga.Microsecond, nil},
		{"generic ahead", sweep.Group{Spec: switchSpec("ahead", 20000), Measure: sweep.GenericMeasure},
			305 * netfpga.Microsecond, 10 * netfpga.Microsecond, nil},
		{"latency", sweep.Group{Spec: switchSpec("latency", 1000), Measure: sweep.LatencyMeasure},
			305 * netfpga.Microsecond, 1000 * netfpga.Microsecond / 64, sweep.ErrCanceled},
		{"T1 goodput", defT1().Groups[0], 250 * netfpga.Microsecond, netfpga.Microsecond, nil},
		{"T3 host pump", defT3().Groups[0], 150 * netfpga.Microsecond, 2 * netfpga.Microsecond, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			g := tc.group
			m := g.Measure
			g.Measure = func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
				c.Dev.Sim.At(tc.cancelAt, cancel)
				return m(c, cell)
			}
			plan, err := sweep.PlanGroups([]sweep.Group{g}, "", 1)
			if err != nil {
				t.Fatal(err)
			}
			cr, err := plan.RunCell(ctx, plan.Cells[0].Key, 0, 0, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantErr == nil && cr.Err != "" {
				t.Errorf("cell error %q", cr.Err)
			}
			if tc.wantErr != nil && !strings.HasPrefix(cr.Err, tc.wantErr.Error()) {
				t.Errorf("cell error %q, want %v", cr.Err, tc.wantErr)
			}
			if ctx.Err() == nil {
				t.Fatalf("the cancel at %v never fired: the cell ran to %v", tc.cancelAt, cr.SimTime)
			}
			if cr.SimTime < tc.cancelAt || cr.SimTime > tc.cancelAt+tc.step {
				t.Errorf("canceled at %v, the cell ran to %v: want it stopped within one %v step", tc.cancelAt, cr.SimTime, tc.step)
			}
		})
	}
}
