package experiments

import (
	"context"
	"testing"

	"repro/netfpga"
	"repro/netfpga/sweep"
)

// perEdge puts a fresh device on the per-edge reference — every clock
// edge its own simulation event, every datapath cycle a Tick — by
// setting the two equivalence-test hooks before the project is built,
// and keeps the device for the window check.
func perEdge(held **netfpga.Device) func(*netfpga.Device) {
	return func(dev *netfpga.Device) {
		dev.Clock.SetBatch(1)
		dev.Dsn.SetFrameBurst(1)
		*held = dev
	}
}

// TestPerEdgeReferenceMatchesGoldens is the advance contract's
// end-to-end gate: every cell of the paper sweep and of the hybrid
// calibration sweep runs once on the per-edge reference — clock batch 1,
// frame windows off — and its digest must match the golden tables the
// default engine (batch 64, adaptive windows) is held to. How far a
// clock or a design advances per call must be observable by nothing.
func TestPerEdgeReferenceMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep matrix is slow")
	}
	for _, tc := range []struct {
		name   string
		groups []sweep.Group
		golden string
	}{
		{"paper", paperGroups(t), goldenPath},
		{"hybrid", hybridGroups(t), hybridGoldenPath},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := sweep.ReadGolden(tc.golden)
			if err != nil {
				t.Fatalf("reading golden: %v", err)
			}
			plan, err := sweep.PlanGroups(tc.groups, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			merger := plan.Merger()
			for _, key := range plan.Keys() {
				var dev *netfpga.Device
				cr, err := plan.RunCell(context.Background(), key, 0, 0, "", perEdge(&dev))
				if err == nil {
					_, err = merger.Place(cr.Record())
				}
				if err != nil {
					t.Fatalf("cell %s: %v", key, err)
				}
				// The device must not have opened a single frame window.
				if dev != nil {
					if windows, _ := dev.Dsn.WindowStats(); windows != 0 {
						t.Errorf("cell %s: per-edge device opened %d frame windows", key, windows)
					}
				}
			}
			rs, err := merger.Results()
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rs.Failed() {
				t.Errorf("cell %s failed: %s", f.Cell.Key, f.Err)
			}
			for _, d := range sweep.DiffGolden(g, rs, false) {
				t.Errorf("golden mismatch on the per-edge reference:\n  %s", d)
			}
		})
	}
}
