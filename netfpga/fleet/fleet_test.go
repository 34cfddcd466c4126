package fleet

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/netfpga"
	"repro/netfpga/projects/switchp"
	"repro/netfpga/workload"
)

// switchJob builds one reference-switch device pushing seeded workload
// traffic for a fixed simulated window — the canonical fleet unit used
// by the determinism tests and the nf-bench demo suite.
func switchJob(name string) Job {
	return Job{
		Name:  name,
		Board: netfpga.SUME(),
		// A small injected bit-error rate makes the per-device RNG
		// seed observable in the results: wrong seeding shows up as
		// different FCS-error counts.
		Options: netfpga.Options{PortBER: 1e-7},
		Build: func(dev *netfpga.Device) error {
			return switchp.New(switchp.Config{}).Build(dev)
		},
		Drive: func(c *Ctx) (any, error) {
			gen, err := workload.New(workload.Config{Seed: c.Seed})
			if err != nil {
				return nil, err
			}
			taps := make([]*netfpga.PortTap, 4)
			for i := range taps {
				taps[i] = c.Dev.Tap(i)
			}
			var sent, rx int
			for c.RunFor(10 * netfpga.Microsecond) {
				for i := 0; i < 16; i++ {
					if taps[c.Rand.Intn(4)].Send(gen.Next()) {
						sent++
					}
				}
			}
			c.Dev.RunUntilIdle(0)
			for _, t := range taps {
				rx += len(t.Received())
			}
			return switchValue{fmt.Sprintf("sent=%d rx=%d", sent, rx), c.Dev.Snapshot()}, nil
		},
		Stop: Stop{SimTime: 200 * netfpga.Microsecond},
	}
}

// switchValue is what a switchJob's Drive returns: its traffic summary
// and the device's counter snapshot, taken before Drive returns.
type switchValue struct {
	summary string
	stats   map[string]uint64
}

// fingerprint renders a result to a canonical byte string: seed, final
// simulated time, the summary, and every snapshot counter in sorted key
// order.
func fingerprint(r Result) string {
	var b strings.Builder
	v, _ := r.Value.(switchValue)
	fmt.Fprintf(&b, "%s seed=%#x sim=%d events=%d value=%s\n",
		r.Name, r.Seed, r.SimTime, r.Events, v.summary)
	for _, k := range slices.Sorted(maps.Keys(v.stats)) {
		fmt.Fprintf(&b, "  %s=%d\n", k, v.stats[k])
	}
	return b.String()
}

// TestDeterminismAcrossWorkerCounts is the fleet contract: the same
// seeds produce byte-identical per-device results whether the batch
// runs on one worker or eight.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	mkJobs := func() []Job {
		jobs := make([]Job, 8)
		for i := range jobs {
			jobs[i] = switchJob(fmt.Sprintf("dev%d", i))
		}
		return jobs
	}
	seq := (&Runner{Workers: 1, BaseSeed: 42}).RunAll(context.Background(), mkJobs())
	par := (&Runner{Workers: 8, BaseSeed: 42}).RunAll(context.Background(), mkJobs())
	if len(seq) != len(par) {
		t.Fatalf("result count: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Err != nil {
			t.Fatalf("job %d failed: %v", i, seq[i].Err)
		}
		a, b := fingerprint(seq[i]), fingerprint(par[i])
		if a != b {
			t.Errorf("job %d diverged between workers=1 and workers=8:\n--- seq\n%s--- par\n%s", i, a, b)
		}
		if len(seq[i].Value.(switchValue).stats) == 0 {
			t.Errorf("job %d has no stats snapshot", i)
		}
	}
	// Different base seeds must actually change the results (the BER
	// and workload draws depend on them) — otherwise the determinism
	// check above would pass vacuously.
	other := (&Runner{Workers: 8, BaseSeed: 43}).RunAll(context.Background(), mkJobs())
	diff := false
	for i := range seq {
		if fingerprint(seq[i]) != fingerprint(other[i]) {
			diff = true
		}
	}
	if !diff {
		t.Error("base seed change did not alter any result")
	}
}

// TestErrorIsolation: one device failing (error or panic) must not
// wedge or poison the rest of the batch.
func TestErrorIsolation(t *testing.T) {
	boom := errors.New("deliberate failure")
	jobs := []Job{
		switchJob("ok0"),
		{Name: "fails", NoDevice: true, Drive: func(c *Ctx) (any, error) { return nil, boom }},
		{Name: "panics", NoDevice: true, Drive: func(c *Ctx) (any, error) { panic("deliberate panic") }},
		switchJob("ok1"),
	}
	res := New(4).RunAll(context.Background(), jobs)
	if res[0].Err != nil || res[3].Err != nil {
		t.Fatalf("healthy jobs failed: %v / %v", res[0].Err, res[3].Err)
	}
	if !errors.Is(res[1].Err, boom) {
		t.Errorf("job 1: want wrapped %v, got %v", boom, res[1].Err)
	}
	if res[2].Err == nil || !strings.Contains(res[2].Err.Error(), "panicked") {
		t.Errorf("job 2: want recovered panic, got %v", res[2].Err)
	}
	if errs := Errs(res); len(errs) != 2 {
		t.Errorf("Errs: want 2, got %d (%v)", len(errs), errs)
	}
}

// TestCancellation: cancelling the batch context abandons unstarted
// jobs with ErrCanceled, interrupts in-flight RunFor loops, and the
// pool still returns a full result set.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	// The two live jobs declare the largest windows, so they are
	// claimed before the job that must not start.
	jobs := []Job{
		{Name: "canceller", NoDevice: true, Stop: Stop{SimTime: netfpga.Second}, Drive: func(c *Ctx) (any, error) {
			<-started // job 1 is running before we cancel
			cancel()
			return "done", nil
		}},
		{Name: "inflight", Board: netfpga.SUME(), Stop: Stop{SimTime: netfpga.Second}, Drive: func(c *Ctx) (any, error) {
			close(started)
			n := 0
			for c.RunFor(netfpga.Microsecond) {
				// Yield so the canceller goroutine runs even on a
				// single-CPU machine: this empty device's RunFor has no
				// preemption point, and the loop must observe the
				// cancel, not race it.
				runtime.Gosched()
				n++
				if n > 1_000_000 {
					return nil, errors.New("RunFor ignored cancellation")
				}
			}
			if !c.Canceled() {
				return nil, errors.New("expected cancellation")
			}
			return "interrupted", nil
		}},
		switchJob("never-starts"),
	}
	// One worker per job so 0 and 1 run concurrently; job 2 is only
	// picked up after the cancel, hitting the abandoned path... with 2
	// workers job 2 waits for a free worker instead. Use 2 workers:
	// worker A takes job 0 (blocks on started), worker B takes job 1
	// (closes started, spins until cancel). Job 2 starts after cancel.
	res := (&Runner{Workers: 2}).RunAll(ctx, jobs)
	if res[0].Err != nil || res[0].Value != "done" {
		t.Errorf("job 0: %v %v", res[0].Value, res[0].Err)
	}
	if res[1].Err != nil || res[1].Value != "interrupted" {
		t.Errorf("job 1: %v %v", res[1].Value, res[1].Err)
	}
	if !errors.Is(res[2].Err, ErrCanceled) {
		t.Errorf("job 2: want ErrCanceled, got %v", res[2].Err)
	}
}

// TestStopConditions: the event budget and sim-time budget both halt
// RunFor, and the budget introspection agrees.
func TestStopConditions(t *testing.T) {
	run := func(stop Stop) Result {
		job := switchJob("budget")
		job.Stop = stop
		return Sequential().RunAll(context.Background(), []Job{job})[0]
	}
	r := run(Stop{SimTime: 50 * netfpga.Microsecond})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	// Drive calls RunUntilIdle after the budget loop, so the final sim
	// time may exceed the budget slightly, but the loop itself must
	// have stopped near it (well before the unbounded 200us version).
	if r.SimTime > 120*netfpga.Microsecond {
		t.Errorf("sim-time budget ignored: ran to %v", r.SimTime)
	}
	r = run(Stop{Events: 5000})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Events < 5000 {
		t.Errorf("event budget: device executed only %d events", r.Events)
	}
}

// TestRunStream: streaming delivers every result exactly once.
func TestRunStream(t *testing.T) {
	jobs := make([]Job, 6)
	for i := range jobs {
		i := i
		jobs[i] = Job{Name: fmt.Sprintf("s%d", i), NoDevice: true,
			Drive: func(c *Ctx) (any, error) { return i * i, nil }}
	}
	seen := make(map[int]any)
	for r := range New(3).RunStream(context.Background(), jobs) {
		if _, dup := seen[r.Index]; dup {
			t.Fatalf("duplicate result for index %d", r.Index)
		}
		seen[r.Index] = r.Value
	}
	if len(seen) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(seen), len(jobs))
	}
	for i := range jobs {
		if seen[i] != i*i {
			t.Errorf("index %d: value %v, want %d", i, seen[i], i*i)
		}
	}
}

// TestRunStreamDeterministicAcrossWorkerCounts: RunStream delivers
// results in completion order — which legitimately varies with worker
// count and scheduling — but once re-sorted by job index, the full
// result set must be byte-identical at every worker count. This is the
// contract the sweep subsystem's streaming progress (and its golden
// digests) stand on.
func TestRunStreamDeterministicAcrossWorkerCounts(t *testing.T) {
	mkJobs := func() []Job {
		jobs := make([]Job, 8)
		for i := range jobs {
			jobs[i] = switchJob(fmt.Sprintf("dev%d", i))
		}
		return jobs
	}
	collect := func(workers int) string {
		results := make([]Result, 0, 8)
		for r := range (&Runner{Workers: workers, BaseSeed: 42}).
			RunStream(context.Background(), mkJobs()) {
			results = append(results, r)
		}
		if len(results) != 8 {
			t.Fatalf("workers=%d: got %d results, want 8", workers, len(results))
		}
		sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })
		var b strings.Builder
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d: job %q failed: %v", workers, r.Name, r.Err)
			}
			b.WriteString(fingerprint(r))
		}
		return b.String()
	}
	want := collect(1)
	for _, workers := range []int{4, 8} {
		if got := collect(workers); got != want {
			t.Errorf("re-sorted stream output diverges between workers=1 and workers=%d:\n--- 1\n%s--- %d\n%s",
				workers, want, workers, got)
		}
	}
}

// TestDeriveSeed: seeds are a pure function of (base, index), distinct
// across indices, and never zero.
func TestDeriveSeed(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(7, i)
		if s == 0 {
			t.Fatalf("zero seed at index %d", i)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("seed collision between index %d and %d", i, j)
		}
		seen[s] = i
		if s != DeriveSeed(7, i) {
			t.Fatalf("DeriveSeed not pure at index %d", i)
		}
	}
}

// TestExplicitSeedWins: a job with Options.Seed set keeps it instead of
// the derived seed.
func TestExplicitSeedWins(t *testing.T) {
	job := switchJob("pinned")
	job.Options.Seed = 12345
	r := Sequential().RunAll(context.Background(), []Job{job})[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Seed != 12345 {
		t.Errorf("seed: got %#x, want 12345", r.Seed)
	}
}

// TestMustValue panics on failed jobs and passes values through on
// healthy ones.
func TestMustValue(t *testing.T) {
	ok := Result{Value: 99}
	if v := ok.MustValue(); v != 99 {
		t.Errorf("MustValue: %v", v)
	}
	bad := Result{Name: "x", Err: errors.New("nope")}
	defer func() {
		if recover() == nil {
			t.Error("MustValue did not panic on failed job")
		}
	}()
	bad.MustValue()
}
