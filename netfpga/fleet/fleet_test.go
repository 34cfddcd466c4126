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
// traffic for a fixed simulated window, stepped the way the sweep
// measures step: offer a burst, run 10 us, until the window ends or the
// batch is canceled. It is the canonical fleet unit used by the
// determinism tests.
func switchJob(name string, seed uint64) Job {
	return Job{
		Name:  name,
		Board: netfpga.SUME(),
		// A small injected bit-error rate makes the per-device RNG
		// seed observable in the results: wrong seeding shows up as
		// different FCS-error counts.
		Options: netfpga.Options{Seed: seed, PortBER: 1e-7},
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
			for end := c.Dev.Now() + 200*netfpga.Microsecond; c.Dev.Now() < end && !c.Canceled(); {
				for i := 0; i < 16; i++ {
					if taps[c.Rand.Intn(4)].Send(gen.Next()) {
						sent++
					}
				}
				c.Dev.RunFor(10 * netfpga.Microsecond)
			}
			c.Dev.RunUntilIdle(0)
			for _, t := range taps {
				rx += len(t.Received())
			}
			return switchValue{fmt.Sprintf("sent=%d rx=%d", sent, rx), c.Dev.Snapshot()}, nil
		},
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

// switchJobs is a batch of eight switchJobs whose seeds derive from
// base.
func switchJobs(base uint64) []Job {
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = switchJob(fmt.Sprintf("dev%d", i), base*100+uint64(i))
	}
	return jobs
}

// runStream collects a RunStream batch and re-sorts it by job index:
// RunStream delivers in completion order, which legitimately varies
// with the worker count.
func runStream(r *Runner, jobs []Job) []Result {
	var res []Result
	for got := range r.RunStream(context.Background(), jobs) {
		res = append(res, got)
	}
	sort.Slice(res, func(i, j int) bool { return res[i].Index < res[j].Index })
	return res
}

// digest checks that res holds the eight switchJobs, in index order and
// without errors, and concatenates their fingerprints.
func digest(t *testing.T, res []Result) string {
	t.Helper()
	if len(res) != 8 {
		t.Fatalf("got %d results, want 8", len(res))
	}
	var b strings.Builder
	for i, r := range res {
		if r.Err != nil || r.Index != i {
			t.Fatalf("slot %d holds index %d (%q): %v", i, r.Index, r.Name, r.Err)
		}
		if len(r.Value.(switchValue).stats) == 0 {
			t.Fatalf("job %q has no stats snapshot", r.Name)
		}
		b.WriteString(fingerprint(r))
	}
	return b.String()
}

// TestDeterminismAcrossWorkerCounts is the fleet contract: the same
// seeds produce byte-identical per-device results whether the batch
// runs on one worker or eight. The sweep's golden digests stand on this.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	want := digest(t, (&Runner{Workers: 1}).RunAll(context.Background(), switchJobs(42)))
	for _, workers := range []int{4, 8} {
		if got := digest(t, (&Runner{Workers: workers}).RunAll(context.Background(), switchJobs(42))); got != want {
			t.Errorf("workers=%d diverges from workers=1:\n--- 1\n%s--- %d\n%s", workers, want, workers, got)
		}
	}
	// Different seeds must actually change the results (the BER and
	// workload draws depend on them) — otherwise the determinism check
	// above would pass vacuously.
	other := (&Runner{Workers: 8}).RunAll(context.Background(), switchJobs(43))
	if digest(t, other) == want {
		t.Error("seed change did not alter any result")
	}
}

// TestRunStreamDeterministicAcrossWorkerCounts: re-sorted by job index,
// RunStream's results on any worker count match RunAll on one worker.
// The sweep's streaming progress stands on this.
func TestRunStreamDeterministicAcrossWorkerCounts(t *testing.T) {
	want := digest(t, (&Runner{Workers: 1}).RunAll(context.Background(), switchJobs(42)))
	for _, workers := range []int{1, 4, 8} {
		if got := digest(t, runStream(&Runner{Workers: workers}, switchJobs(42))); got != want {
			t.Errorf("RunStream on workers=%d diverges from RunAll on one worker:\n--- want\n%s--- got\n%s",
				workers, want, got)
		}
	}
}

// TestErrorIsolation: one device failing (error or panic) must not
// wedge or poison the rest of the batch.
func TestErrorIsolation(t *testing.T) {
	boom := errors.New("deliberate failure")
	jobs := []Job{
		switchJob("ok0", 1),
		{Name: "fails", NoDevice: true, Drive: func(c *Ctx) (any, error) { return nil, boom }},
		{Name: "panics", NoDevice: true, Drive: func(c *Ctx) (any, error) { panic("deliberate panic") }},
		switchJob("ok1", 2),
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
}

// TestCancellation: cancelling the batch context abandons unstarted
// jobs with ErrCanceled, in-flight jobs see Ctx.Canceled and stop
// their stepping loop, and the pool still returns a full result set.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	// Workers claim in index order: with two workers, one takes the
	// canceller and the other the in-flight device; the third job is
	// only claimed after the cancel.
	jobs := []Job{
		{Name: "canceller", NoDevice: true, Drive: func(c *Ctx) (any, error) {
			<-started // job 1 is running before we cancel
			cancel()
			return "done", nil
		}},
		{Name: "inflight", Board: netfpga.SUME(), Options: netfpga.Options{Seed: 1}, Drive: func(c *Ctx) (any, error) {
			close(started)
			for n := 0; !c.Canceled(); n++ {
				if n > 1_000_000 {
					return nil, errors.New("cancellation never observed")
				}
				c.Dev.RunFor(netfpga.Microsecond)
				// Yield so the canceller goroutine runs even on a
				// single-CPU machine: this empty device's RunFor has no
				// preemption point, and the loop must observe the
				// cancel, not race it.
				runtime.Gosched()
			}
			return "interrupted", nil
		}},
		switchJob("never-starts", 3),
	}
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

// TestAcquireRelease is the device hand-back contract of Job.Acquire:
// the runner releases an acquired device exactly once, after Drive,
// clean only when the job succeeded and the batch was not canceled; an
// Acquire that fails is a build error and hands nothing back.
func TestAcquireRelease(t *testing.T) {
	dev := netfpga.NewDevice(netfpga.SUME(), netfpga.Options{NoHost: true})
	boom := errors.New("deliberate failure")
	cases := []struct {
		name       string
		acquireErr error
		drive      func(c *Ctx, cancel func()) (any, error)
		wantErr    string // substring of Result.Err; "" for success
		releases   []bool // the clean flag of every release call
	}{
		{name: "succeeds", drive: func(c *Ctx, _ func()) (any, error) { return "ok", nil },
			releases: []bool{true}},
		{name: "fails", drive: func(c *Ctx, _ func()) (any, error) { return nil, boom },
			wantErr: boom.Error(), releases: []bool{false}},
		{name: "panics", drive: func(c *Ctx, _ func()) (any, error) { panic("deliberate panic") },
			wantErr: "panicked", releases: []bool{false}},
		{name: "canceled mid-run", drive: func(c *Ctx, cancel func()) (any, error) {
			cancel()
			if !c.Canceled() {
				return nil, errors.New("cancel not observed")
			}
			return "interrupted", nil
		}, releases: []bool{false}},
		{name: "acquire fails", acquireErr: boom, wantErr: "build: " + boom.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var releases []bool
			job := Job{
				Name:    tc.name,
				Options: netfpga.Options{Seed: 7},
				Acquire: func(opts netfpga.Options) (*netfpga.Device, func(bool), error) {
					if opts.Seed != 7 || opts.Fidelity != "full" {
						t.Errorf("Acquire got seed %d fidelity %q, want 7 and the runner's", opts.Seed, opts.Fidelity)
					}
					release := func(clean bool) { releases = append(releases, clean) }
					if tc.acquireErr != nil {
						return nil, release, tc.acquireErr
					}
					return dev, release, nil
				},
				Drive: func(c *Ctx) (any, error) {
					if c.Dev != dev {
						t.Error("Drive did not get the acquired device")
					}
					if len(releases) != 0 {
						t.Error("device released before Drive returned")
					}
					return tc.drive(c, cancel)
				},
			}
			res := (&Runner{Workers: 1, Fidelity: "full"}).RunAll(ctx, []Job{job})[0]
			switch {
			case tc.wantErr == "" && res.Err != nil:
				t.Errorf("unexpected error %v", res.Err)
			case tc.wantErr != "" && (res.Err == nil || !strings.Contains(res.Err.Error(), tc.wantErr)):
				t.Errorf("error %v, want one containing %q", res.Err, tc.wantErr)
			}
			if !slices.Equal(releases, tc.releases) {
				t.Errorf("release calls %v, want %v", releases, tc.releases)
			}
		})
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
