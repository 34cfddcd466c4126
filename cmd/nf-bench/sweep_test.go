package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/storage/resultstore"
	"repro/netfpga/sweep"
	"repro/netfpga/sweep/shard"
)

// TestParseSweepFlags: flags -> run config, table-driven. Each case
// names the flags on top of `-config c` and edits the default config
// into the one it expects, or names the error.
func TestParseSweepFlags(t *testing.T) {
	defaults := func() *sweepConfig {
		return &sweepConfig{
			fleet:    shard.Fleet{Req: shard.Request{Config: "c", Workers: runtime.GOMAXPROCS(0)}},
			storeDir: "nf-results",
		}
	}
	cases := []struct {
		args    string
		want    func(c *sweepConfig)
		mode    string
		wantErr string
	}{
		{args: "-workers 4", want: func(c *sweepConfig) { c.fleet.Req.Workers = 4 },
			mode: "fleet of 1 local + 0 remote workers, a pool of 4 in each"},
		{args: "-workers 4 -shards 1", want: func(c *sweepConfig) { c.fleet.Req.Workers = 4 },
			mode: "fleet of 1 local + 0 remote workers, a pool of 4 in each"},
		{args: "-workers 4 -shards 2", want: func(c *sweepConfig) { c.fleet.Req.Workers, c.procs = 4, 2 },
			mode: "fleet of 2 local + 0 remote workers, a pool of 4 in each"},
		{args: "-workers 4 -connect a,b", want: func(c *sweepConfig) { c.fleet.Req.Workers, c.addrs = 4, []string{"a", "b"} },
			mode: "fleet of 0 local + 2 remote workers, a pool of 4 in each"},
		{args: "-workers 4 -connect a -shards 2", want: func(c *sweepConfig) {
			c.fleet.Req.Workers, c.procs, c.addrs = 4, 2, []string{"a"}
		}, mode: "fleet of 2 local + 1 remote workers, a pool of 4 in each"},
		{args: "", want: func(c *sweepConfig) {}},
		{args: "-shards 2 -chaos 7", want: func(c *sweepConfig) {
			c.procs, c.chaos = 2, 7
			c.fleet.HangTimeout, c.fleet.StallTimeout = 20*time.Second, 2*time.Minute
		}},
		{args: "-shards 2 -chaos 7 -worker-timeout 5s -stall-timeout 1m", want: func(c *sweepConfig) {
			c.procs, c.chaos = 2, 7
			c.fleet.HangTimeout, c.fleet.StallTimeout = 5*time.Second, time.Minute
		}},
		{args: "-workers 3 -seed 9 -filter T4", want: func(c *sweepConfig) {
			r := &c.fleet.Req
			r.Workers, r.Seed, r.Filter = 3, 9, "T4"
		}},
		{args: "-shards 2 -resume x -store s", want: func(c *sweepConfig) {
			c.procs, c.resume, c.storeDir = 2, "x", "s"
		}},
		{args: "-resume x -store s", want: func(c *sweepConfig) { c.resume, c.storeDir = "x", "s" },
			mode: "fleet of 1 local + 0 remote workers, a pool of " + strconv.Itoa(runtime.GOMAXPROCS(0)) + " in each"},
		{args: "-chaos 7", want: func(c *sweepConfig) {
			c.chaos = 7
			c.fleet.HangTimeout, c.fleet.StallTimeout = 20*time.Second, 2*time.Minute
		}},
		{args: "-worker-timeout 5s -stall-timeout 1m", want: func(c *sweepConfig) {
			c.fleet.HangTimeout, c.fleet.StallTimeout = 5*time.Second, time.Minute
		}},
		{args: "-connect a -tls-ca x", want: func(c *sweepConfig) { c.addrs, c.tlsCA = []string{"a"}, "x" },
			mode: "fleet of 0 local + 1 remote workers, a pool of " + strconv.Itoa(runtime.GOMAXPROCS(0)) + " in each"},

		{args: "-shards 2 -resume x -no-store", wantErr: "-resume needs the results store"},
		{args: "-shards 0", wantErr: "-shards must be >= 1"},
		{args: "-exec elastic", wantErr: "flag provided but not defined: -exec"},
		{args: "-shard-worker", wantErr: "flag provided but not defined: -shard-worker"},
		{args: "-batch 1", wantErr: "flag provided but not defined: -batch"},
		{args: "-burst off", wantErr: "flag provided but not defined: -burst"},
		{args: "-burst 64", wantErr: "flag provided but not defined: -burst"},
		{args: "-segment off", wantErr: "flag provided but not defined: -segment"},
		{args: "-segment 512", wantErr: "flag provided but not defined: -segment"},
		{args: "-shards 2 -steal", wantErr: "flag provided but not defined: -steal"},
		{args: "-shards 2 -migrate-after 5000", wantErr: "flag provided but not defined: -migrate-after"},
		{args: "-fidelity hybrid", wantErr: "flag provided but not defined: -fidelity"},
		{args: "-fidelity full", wantErr: "flag provided but not defined: -fidelity"},
		{args: "-sched uniform", wantErr: "flag provided but not defined: -sched"},
		{args: "-sched random", wantErr: "flag provided but not defined: -sched"},
		{args: "-shards 2 -reconnect=false", wantErr: "flag provided but not defined: -reconnect"},
		{args: "-shards 2 -breaker-failures 3", wantErr: "flag provided but not defined: -breaker-failures"},
		{args: "-shards 2 -breaker-window 1s", wantErr: "flag provided but not defined: -breaker-window"},
		{args: "-shards 2 -breaker-cooldown 1s", wantErr: "flag provided but not defined: -breaker-cooldown"},
		{args: "-shards 2 -fallback=false", wantErr: "flag provided but not defined: -fallback"},
		{args: "-tls-ca x", wantErr: "-tls-ca verifies dialed workers: it needs -connect"},
		{args: "-shards 2 -tls-ca x", wantErr: "-tls-ca verifies dialed workers: it needs -connect"},
	}
	for _, tc := range cases {
		got, err := parseSweepFlags(append([]string{"-config", "c"}, strings.Fields(tc.args)...))
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		want := defaults()
		tc.want(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q:\n got %+v\nwant %+v", tc.args, got, want)
		}
		if tc.mode != "" && got.mode() != tc.mode {
			t.Errorf("%q: banner says %q, want %q", tc.args, got.mode(), tc.mode)
		}
	}

	if _, err := parseSweepFlags(nil); err == nil || !strings.Contains(err.Error(), "-config is required") {
		t.Errorf("no -config: error %v", err)
	}
	if c, err := parseSweepFlags([]string{"-history", "T4"}); err != nil || c.history != "T4" {
		t.Errorf("-history without -config: %+v, %v", c, err)
	}
	if _, err := parseSweepFlags([]string{"-shards", "2", "-resume", "x"}); err != nil {
		t.Errorf("-resume may supply the config: %v", err)
	}
}

// TestParseMainFlags: the bare command is an alias for an in-process,
// storeless sweep of an in-memory config, and keeps four flags.
func TestParseMainFlags(t *testing.T) {
	all := []string{"F1", "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "F2", "T9"}
	cases := []struct {
		args    string
		req     shard.Request
		exps    []string
		wantErr string
	}{
		{args: "", req: shard.Request{Workers: runtime.GOMAXPROCS(0)}, exps: all},
		{args: "-exp T4 -workers 3 -seed 9", req: shard.Request{Workers: 3, Seed: 9}, exps: []string{"T4"}},
		{args: "-list", req: shard.Request{Workers: runtime.GOMAXPROCS(0)}},

		{args: "-exp nope", wantErr: `unknown experiment "nope"`},
		{args: "-fidelity hybrid -workers 1", wantErr: "flag provided but not defined: -fidelity"},
		{args: "-fidelity full", wantErr: "flag provided but not defined: -fidelity"},
		{args: "-parallel", wantErr: "flag provided but not defined: -parallel"},
		{args: "-json", wantErr: "flag provided but not defined: -json"},
		{args: "-json-out x.json", wantErr: "flag provided but not defined: -json-out"},
		{args: "-store s", wantErr: "flag provided but not defined: -store"},
		{args: "-no-store", wantErr: "flag provided but not defined: -no-store"},
		{args: "-cpuprofile cpu.out", wantErr: "flag provided but not defined: -cpuprofile"},
		{args: "-memprofile mem.out", wantErr: "flag provided but not defined: -memprofile"},
	}
	for _, tc := range cases {
		c, cfg, err := parseMainFlags(strings.Fields(tc.args))
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		want := &sweepConfig{fleet: shard.Fleet{Req: tc.req}, noStore: true}
		if !reflect.DeepEqual(c, want) {
			t.Errorf("%q:\n got %+v\nwant %+v", tc.args, c, want)
		}
		if tc.exps == nil {
			if cfg != nil {
				t.Errorf("%q: -list built a config %+v", tc.args, cfg)
			}
			continue
		}
		if cfg == nil || !reflect.DeepEqual(cfg.Experiments, tc.exps) || len(cfg.Scenarios) != 0 {
			t.Errorf("%q: config %+v, want experiments %v and no scenarios", tc.args, cfg, tc.exps)
		}
	}
}

// TestHistoryServesBenchRuns: a store still holding a run of the
// deleted `nf-bench -json` indexer (run bench-<stamp>, key bench/<ID>,
// metrics plus frames and wall_ns) reports it through -history with its
// raw value columns. A torn partial beside it — what a SIGKILLed run
// leaves for -resume — is skipped unread, not a failure.
func TestHistoryServesBenchRuns(t *testing.T) {
	dir := t.TempDir()
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, stamp := range []string{"20250101-000000", "20250102-000000"} {
		rw, err := st.Begin(resultstore.Meta{Run: "bench-" + stamp, Name: "bench", Workers: 1, Stamp: stamp})
		if err != nil {
			t.Fatal(err)
		}
		if err := rw.Append(resultstore.Record{
			Key:    "bench/T4",
			Values: map[string]float64{"T4/achieved_64B_gbps": 28.57, "frames": 1000, "wall_ns": float64(2+i) * 1e8},
			Labels: map[string]string{"title": "reference switch line rate and latency"},
			Digest: resultstore.Hash("T4/achieved_64B_gbps=28.57;"),
		}); err != nil {
			t.Fatal(err)
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rw, err := st.Begin(resultstore.Meta{Run: "x-fleet", Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"bench/T4", "bench/T5"} {
		if err := rw.Append(resultstore.Record{Key: key, Digest: "partial", Values: map[string]float64{"frames": 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "runs", "x-fleet.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-12], 0o644); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() { runHistory(dir, "bench/T4") })
	for _, want := range []string{
		"history of bench/T4", "2 stored runs",
		"T4/achieved_64B_gbps", "frames", "wall_ns", "28.57", "1000", "2e+08", "3e+08",
		"digest changed 0 time(s) across 2 runs; latest digest " +
			resultstore.Hash("T4/achieved_64B_gbps=28.57;") + " (run bench-20250102-000000)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("history output lacks %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"frames/sec", "headline"} {
		if strings.Contains(out, gone) {
			t.Errorf("history output still derives %q:\n%s", gone, out)
		}
	}
}

// TestCompareRunChecksSeed: -compare-run against a run stored with
// another base seed fails naming both seeds, as -compare does for a
// golden of another seed, instead of listing every cell as changed. A
// run of the same seed diffs by digest, and a filtered run leaves the
// stored cells it did not run out of the diff.
func TestCompareRunChecksSeed(t *testing.T) {
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	groups := []sweep.Group{{
		Spec:    sweep.Spec{Name: "c", NoDevice: true, Params: []sweep.Axis{{Name: "i", Values: []string{"0", "1"}}}},
		Measure: func(*sweep.Ctx, sweep.Cell) (sweep.Outcome, error) { return sweep.Outcome{}, nil },
	}}
	plan, err := sweep.PlanGroups(groups, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	m := plan.Merger()
	for _, key := range plan.Keys() {
		cr, err := plan.RunCell(context.Background(), key, 0, 0, "", nil)
		if err == nil {
			_, _, err = m.Adopt(cr.Record())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	rs, err := m.Results()
	if err != nil {
		t.Fatal(err)
	}
	rw, err := st.Begin(resultstore.Meta{Run: "r", Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range rs.Cells {
		rec := cr.Record()
		if rec.Key == "c/i=1" {
			rec.Digest = "other"
		}
		if err := rw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := storedRun(st, "r", 5); err == nil || err.Error() != "run r was stored with seed 0, this run used 5" {
		t.Errorf("seed 5 against a seed-0 run: %v", err)
	}
	old, err := storedRun(st, "r", 0)
	if err != nil {
		t.Fatal(err)
	}
	changed := "changed: c/i=1 (other -> " + rs.Get("c/i=1").Digest + ")"
	if diffs := runDiffs(old, rs, false); !reflect.DeepEqual(diffs, []string{changed}) {
		t.Errorf("same seed: %q", diffs)
	}
	first := &sweep.Results{Cells: rs.Cells[:1]}
	if diffs := runDiffs(old, first, true); len(diffs) != 0 {
		t.Errorf("filtered to the unchanged cell: %q", diffs)
	}
	if old, err = storedRun(st, "r", 0); err != nil {
		t.Fatal(err)
	}
	if diffs := runDiffs(old, first, false); !reflect.DeepEqual(diffs, []string{"removed: c/i=1"}) {
		t.Errorf("unfiltered with a cell missing: %q", diffs)
	}
}

// TestVersionlessRunRefused: a run stored before digest versions were
// recorded holds version-1 digests, which hashed the engine's event
// count, so none of its cells would verify here. -resume and
// -compare-run both refuse it up front with an error naming both
// versions — never cell by cell, and never as sweep.ErrDiverged.
func TestVersionlessRunRefused(t *testing.T) {
	dir := t.TempDir()
	if _, err := resultstore.Open(dir); err != nil {
		t.Fatal(err)
	}
	cell := `{"cell":{"key":"T4/mesh/project=reference_switch/frame=64","digest":"0123456789abcdef0123456789abcdef","seed":1,"sim_ps":5,"events":7}}` + "\n"
	for run, meta := range map[string]string{
		"done":      `{"meta":{"run":"done","config":"../../examples/paper.sweep","seed":0}}`,
		"cut-fleet": `{"meta":{"run":"cut-fleet","config":"../../examples/paper.sweep","seed":0,"partial":true}}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, "runs", run+".jsonl"), []byte(meta+"\n"+cell), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	version := func(run string) string {
		return fmt.Sprintf("resultstore: run %s digests with version 1, this binary with version %d", run, sweep.DigestVersion)
	}

	c := &sweepConfig{storeDir: dir, resume: "cut"}
	recs, err := loadResume(c)
	if err == nil || errors.Is(err, sweep.ErrDiverged) || err.Error() != version("cut-fleet") {
		t.Errorf("resume of a version-less partial: %d records, %v; want %q", len(recs), err, version("cut-fleet"))
	}
	if _, err := storedRun(st, "done", 0); err == nil || errors.Is(err, sweep.ErrDiverged) || err.Error() != version("done") {
		t.Errorf("compare against a version-less run: %v; want %q", err, version("done"))
	}
}

// TestStoredRunResumes: an in-process stored run is the fleet's run
// path — it streams into <run>-fleet and merges into <run> — so a copy
// of that partial cut to k cells resumes to the same digests, and the
// resume reads exactly <run>-fleet: a seed-5 <run>2-fleet beside it is
// not adopted.
func TestStoredRunResumes(t *testing.T) {
	dir := t.TempDir()
	sweepRun := func(args ...string) string {
		t.Helper()
		base := []string{"-config", "../../examples/paper.sweep", "-filter", "T4", "-store", dir, "-workers", "2", "-q"}
		return captureStdout(t, func() { runSweepCmd(append(base, args...)) })
	}
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sweepRun("-run-id", "full")
	pm, part, _, err := st.ReadRun("full-fleet")
	if err != nil || !pm.Partial || pm.Transport != "" {
		t.Fatalf("in-process run left partial %+v, %v", pm, err)
	}
	meta, want, err := st.RunDigests("full")
	if err != nil || meta.Partial || len(want) != len(part) || len(want) < 4 {
		t.Fatalf("merged run %+v holds %d cells (partial %d), %v", meta, len(want), len(part), err)
	}

	// The interrupted run, the partial cut to k cells, and beside it a
	// seed-5 partial whose id r is a prefix of.
	writePartial := func(m resultstore.Meta, recs []resultstore.Record) {
		t.Helper()
		m.Partial = true
		rw, err := st.Begin(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := rw.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	k := len(part) / 2
	pm.Run = "r-fleet"
	writePartial(pm, part[:k])
	sweepRun("-run-id", "s5", "-seed", "5")
	m5, recs5, _, err := st.ReadRun("s5")
	if err != nil || m5.Seed != 5 {
		t.Fatalf("seed-5 run: %+v, %v", m5, err)
	}
	m5.Run = "r2-fleet"
	writePartial(m5, recs5)

	out := sweepRun("-resume", "r", "-run-id", "resumed", "-compare-run", "full")
	for _, line := range []string{
		fmt.Sprintf("resume: %d persisted cells from r-fleet", k),
		fmt.Sprintf("resume: %d cells verified, 0 rejected, %d left to run", k, len(want)-k),
		"base seed 0,",
		"compare vs run full: all digests match",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("resumed run lacks %q:\n%s", line, out)
		}
	}
	if _, got, err := st.RunDigests("resumed"); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("resumed run's digests differ from the uninterrupted run's (%v)", err)
	}

	// A complete run has nothing to resume; an id whose only file is
	// its <id>-fleet partial is resumable.
	if _, err := loadResume(&sweepConfig{storeDir: dir, resume: "full"}); err == nil ||
		err.Error() != "run full completed; nothing to resume" {
		t.Errorf("-resume of a complete run: err = %v", err)
	}
	var recs []resultstore.Record
	captureStdout(t, func() { recs, err = loadResume(&sweepConfig{storeDir: dir, resume: "r"}) })
	if err != nil || len(recs) != k {
		t.Errorf("-resume r with only r-fleet: %d records, %v", len(recs), err)
	}
}

// captureStdout returns what f prints to os.Stdout.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	defer func() { os.Stdout = stdout }()
	f()
	w.Close()
	return <-done
}
