package fleet_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/netfpga"
	"repro/netfpga/fleet"
)

// TestClaimOrderLongestDeclaredFirst: a batch that declares weights is
// claimed heaviest first — on the tail-heavy batch the 100G cell, last
// in the list, starts before everything else — while every result keeps
// the index, name, seed and content of its list position.
func TestClaimOrderLongestDeclaredFirst(t *testing.T) {
	const base = 42
	jobs := experiments.TailHeavyJobs(160 * netfpga.Microsecond)
	var claimed []string
	for i := range jobs {
		name, build, drive := jobs[i].Name, jobs[i].Build, jobs[i].Drive
		jobs[i].Build = func(dev *netfpga.Device) error {
			claimed = append(claimed, name)
			return build(dev)
		}
		// The value carries the device's counters, so the comparison
		// below covers them.
		jobs[i].Drive = func(c *fleet.Ctx) (any, error) {
			v, err := drive(c)
			return []any{v, c.Dev.Snapshot()}, err
		}
	}
	res := (&fleet.Runner{Workers: 1, BaseSeed: base}).RunAll(context.Background(), jobs)

	want := []string{"tail100g"}
	for i := 0; i < 8; i++ {
		want = append(want, fmt.Sprintf("medium%d", i))
	}
	for i := 0; i < 7; i++ {
		want = append(want, fmt.Sprintf("brief%d", i))
	}
	if !reflect.DeepEqual(claimed, want) {
		t.Errorf("claim order %v, want %v", claimed, want)
	}

	// Each result is what its job produces alone under the seed of its
	// list position, whatever ran before it on the worker.
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %q: %v", r.Name, r.Err)
		}
		if r.Index != i || r.Name != jobs[i].Name || r.Seed != fleet.DeriveSeed(base, i) {
			t.Errorf("slot %d holds index %d name %q seed %#x", i, r.Index, r.Name, r.Seed)
		}
		alone := jobs[i]
		alone.Options.Seed = r.Seed
		ref := fleet.Sequential().RunAll(context.Background(), []fleet.Job{alone})[0]
		if !reflect.DeepEqual(ref.Value, r.Value) || ref.Events != r.Events || ref.SimTime != r.SimTime {
			t.Errorf("job %q differs from its list-order result", r.Name)
		}
	}
}

// TestClaimOrderUndeclaredIsIndexOrder: a batch that declares neither
// weights nor stop windows — every sweep — is claimed in list order.
func TestClaimOrderUndeclaredIsIndexOrder(t *testing.T) {
	var claimed []int
	jobs := make([]fleet.Job, 9)
	for i := range jobs {
		jobs[i] = fleet.Job{Name: fmt.Sprint(i), NoDevice: true,
			Drive: func(c *fleet.Ctx) (any, error) {
				claimed = append(claimed, c.Index)
				return nil, nil
			}}
	}
	fleet.Sequential().RunAll(context.Background(), jobs)
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}; !reflect.DeepEqual(claimed, want) {
		t.Errorf("claim order %v, want %v", claimed, want)
	}
}
