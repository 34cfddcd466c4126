package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/netfpga/sweep"
	"repro/netfpga/workload"
)

// TestMain re-execs the test binary as a stdio session worker when the
// environment asks for it — the same two-OS-process wiring the
// executor golden test and cmd/nf-bench use.
func TestMain(m *testing.M) {
	if os.Getenv("NF_SHARD_SESSION") == "1" {
		err := ServeSession(context.Background(), os.Stdin, os.Stdout, testPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testPlan resolves the test matrix: Config selects a canned spec so
// worker subprocesses need no config files on disk.
func testPlan(req Request) (*sweep.Plan, error) {
	switch req.Config {
	case "matrix":
		return sweep.PlanGroups([]sweep.Group{testGroup()}, req.Filter, req.Seed)
	default:
		return nil, fmt.Errorf("unknown test config %q", req.Config)
	}
}

func testGroup() sweep.Group {
	return sweep.Group{
		Spec: sweep.Spec{
			Name:     "m",
			Projects: []string{"reference_switch", "reference_iotest"},
			Workloads: []sweep.Workload{
				{Name: "imix"},
				{Name: "min", Sizes: []workload.SizeWeight{{Bytes: 60, Weight: 1}}},
			},
			BERs:     []float64{0, 1e-5},
			Seeds:    []uint64{1},
			WindowUS: 40,
		},
		Measure: sweep.GenericMeasure,
	}
}

// divergentTwin is key's record from a worker whose measure reports one
// value more than the plan's: intact on the wire — its digest survives
// its content — yet a different answer for the same cell, as a
// nondeterministic worker would send.
func divergentTwin(tb testing.TB, key string) sweep.CellRecord {
	tb.Helper()
	g := testGroup()
	g.Measure = func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		o, err := sweep.GenericMeasure(c, cell)
		o.Set("twin", 1)
		return o, err
	}
	plan, err := sweep.PlanGroups([]sweep.Group{g}, "", 0)
	if err != nil {
		tb.Fatal(err)
	}
	cr, err := plan.RunCell(context.Background(), key, 0, 0, "", nil)
	if err != nil {
		tb.Fatal(err)
	}
	return cr.Record()
}

// fullRun executes the test matrix in-process as the reference.
func fullRun(t *testing.T) *sweep.Results {
	t.Helper()
	rs, err := sweep.RunGroups(context.Background(), &sweep.Runner{Workers: 2},
		[]sweep.Group{testGroup()}, "")
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// checkMatches asserts the fleet's result set is byte-identical to the
// in-process reference, digest for digest, in expansion order.
func checkMatches(t *testing.T, want, got *sweep.Results) {
	t.Helper()
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("fleet run has %d cells, reference %d", len(got.Cells), len(want.Cells))
	}
	for i := range got.Cells {
		if got.Cells[i].Cell.Key != want.Cells[i].Cell.Key {
			t.Fatalf("cell %d out of order: %s vs %s", i, got.Cells[i].Cell.Key, want.Cells[i].Cell.Key)
		}
		if got.Cells[i].Digest != want.Cells[i].Digest {
			t.Errorf("cell %s digest diverged across the process boundary", got.Cells[i].Cell.Key)
		}
	}
}

// TestWorkerFilterAndSeed: the Open frame's filter and seed reach the
// worker's plan resolver — a filtered, reseeded fleet run matches the
// equivalent in-process run — and a worker whose plan comes back with
// another seed refuses the session with an Err frame.
func TestWorkerFilterAndSeed(t *testing.T) {
	ref, err := sweep.RunGroups(context.Background(),
		&sweep.Runner{Workers: 2, BaseSeed: 99}, []sweep.Group{testGroup()}, "wl=min")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sweep.PlanGroups([]sweep.Group{testGroup()}, "wl=min", 99)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []Request
	recording := func(req Request) (*sweep.Plan, error) {
		mu.Lock()
		seen = append(seen, req)
		mu.Unlock()
		return testPlan(req)
	}
	req := Request{Config: "matrix", Filter: "wl=min", Seed: 99, Workers: 1}
	f := &Fleet{Req: req, Endpoints: []*Endpoint{
		PipeWorker(context.Background(), "pipe:0", recording),
		PipeWorker(context.Background(), "pipe:1", recording),
	}}
	rs, _, err := f.Run(context.Background(), plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, ref, rs)
	if len(seen) != 2 {
		t.Fatalf("plan resolver saw %d requests, want one per worker", len(seen))
	}
	for _, got := range seen {
		if got != req {
			t.Errorf("worker planned %+v, coordinator sent %+v", got, req)
		}
	}

	var in, out bytes.Buffer
	if err := WriteFrame(&in, Command{Open: &Request{Config: "matrix", Seed: 5}}); err != nil {
		t.Fatal(err)
	}
	skewed := func(req Request) (*sweep.Plan, error) {
		req.Seed++
		return testPlan(req)
	}
	if err := ServeSession(context.Background(), &in, &out, skewed); err == nil {
		t.Fatal("seed mismatch accepted")
	}
	var fr SessionFrame
	if err := ReadFrame(&out, &fr); err != nil || !strings.Contains(fr.Err, "does not match request seed") {
		t.Fatalf("no Err frame for the seed mismatch: %+v err=%v", fr, err)
	}
}

// TestFrameRoundTrip: the length-prefixed framing survives arbitrary
// message mixes and rejects oversized frames.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []SessionFrame{
		{Cell: &sweep.CellRecord{Key: "a/b=1", Seed: 7, Digest: "d",
			Values: map[string]float64{"x": 1.5}, Labels: map[string]string{"l": "v"}}},
		{Err: "boom"},
		{Done: &SessionDone{Cells: 2}},
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := range msgs {
		var f SessionFrame
		if err := ReadFrame(&buf, &f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if fmt.Sprintf("%+v", f) == "" {
			t.Fatal("empty frame")
		}
	}
	var f SessionFrame
	if err := ReadFrame(&buf, &f); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
	// An older peer's frames still carry keys of deleted knobs
	// (clock_batch, frame_burst, segment, segment_budget and fidelity on
	// Open; migrate_after on Assign; segmented, segments, steals in a
	// stored or shipped utilization report): they are ignored, the rest
	// decodes. Its Cell frame, digest last, decodes too.
	for _, old := range []string{
		`{"open":{"config":"c","seed":3,"workers":2,"clock_batch":1,"frame_burst":64,"segment":true,"segment_budget":512,"fidelity":"hybrid"}}`,
		`{"assign":{"keys":["a","b"],"migrate_after":5000}}`,
		`{"done":{"cells":2,"util":{"workers":1,"jobs":2,"segmented":true,"wall_ms":10,"busy_ms":9,"segments":40,"steals":3,"efficiency":0.9}}}`,
		`{"cell":{"key":"a/b=1","seed":7,"values":{"x":1.5},"labels":{"l":"v"},"digest":"d"}}`,
	} {
		if err := WriteFrame(&buf, json.RawMessage(old)); err != nil {
			t.Fatal(err)
		}
	}
	var open, assign Command
	if err := ReadFrame(&buf, &open); err != nil || *open.Open != (Request{Config: "c", Seed: 3, Workers: 2}) {
		t.Fatalf("old Open frame: %+v, %v", open.Open, err)
	}
	if err := ReadFrame(&buf, &assign); err != nil || fmt.Sprint(assign.Assign.Keys) != "[a b]" {
		t.Fatalf("old Assign frame: %+v, %v", assign.Assign, err)
	}
	wantUtil := sweep.UtilizationReport{Workers: 1, Jobs: 2, WallMS: 10, BusyMS: 9, Efficiency: 0.9}
	if err := ReadFrame(&buf, &f); err != nil || f.Done == nil || f.Done.Util != wantUtil {
		t.Fatalf("old Done frame: %+v, %v", f.Done, err)
	}
	var cell SessionFrame
	if err := ReadFrame(&buf, &cell); err != nil || !reflect.DeepEqual(cell, msgs[0]) {
		t.Fatalf("old Cell frame: %+v, %v", cell.Cell, err)
	}
	// A corrupt length prefix must not allocate the moon.
	bad := bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	if err := ReadFrame(bad, &f); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame accepted: %v", err)
	}
}
