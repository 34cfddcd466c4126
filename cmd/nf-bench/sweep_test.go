package main

import (
	"io"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/storage/resultstore"
	"repro/netfpga"
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
			mode: "in-process on 4 workers"},
		{args: "-workers 4 -shards 1", want: func(c *sweepConfig) { c.fleet.Req.Workers = 4 },
			mode: "in-process on 4 workers"},
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
		{args: "-fidelity hybrid", want: func(c *sweepConfig) { c.fleet.Req.Fidelity = netfpga.FidelityHybrid }},
		{args: "-workers 3 -seed 9 -filter T4", want: func(c *sweepConfig) {
			r := &c.fleet.Req
			r.Workers, r.Seed, r.Filter = 3, 9, "T4"
		}},
		{args: "-shards 2 -resume x -store s", want: func(c *sweepConfig) {
			c.procs, c.resume, c.storeDir = 2, "x", "s"
		}},
		{args: "-resume x -store s", want: func(c *sweepConfig) { c.resume, c.storeDir = "x", "s" },
			mode: "in-process on " + strconv.Itoa(runtime.GOMAXPROCS(0)) + " workers"},

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
		{args: "-fidelity half", wantErr: "-fidelity must be"},
		{args: "-sched uniform", wantErr: "flag provided but not defined: -sched"},
		{args: "-sched random", wantErr: "flag provided but not defined: -sched"},
		{args: "-shards 2 -reconnect=false", wantErr: "flag provided but not defined: -reconnect"},
		{args: "-shards 2 -breaker-failures 3", wantErr: "flag provided but not defined: -breaker-failures"},
		{args: "-shards 2 -breaker-window 1s", wantErr: "flag provided but not defined: -breaker-window"},
		{args: "-shards 2 -breaker-cooldown 1s", wantErr: "flag provided but not defined: -breaker-cooldown"},
		{args: "-shards 2 -fallback=false", wantErr: "flag provided but not defined: -fallback"},
		{args: "-chaos 7", wantErr: "-chaos needs a fleet"},
		{args: "-worker-timeout 5s -stall-timeout 1m", wantErr: "-stall-timeout, -worker-timeout needs a fleet"},
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
// storeless sweep of an in-memory config, and keeps five flags.
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
		{args: "-fidelity hybrid -workers 1", req: shard.Request{Workers: 1, Fidelity: netfpga.FidelityHybrid}, exps: all},
		{args: "-list", req: shard.Request{Workers: runtime.GOMAXPROCS(0)}},

		{args: "-exp nope", wantErr: `unknown experiment "nope"`},
		{args: "-fidelity half", wantErr: "-fidelity must be"},
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
// raw value columns.
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
	out := captureStdout(t, func() { runHistory(dir, "bench/T4") })
	for _, want := range []string{
		"history of bench/T4", "2 stored runs",
		"T4/achieved_64B_gbps", "frames", "wall_ns", "28.57", "1000", "2e+08", "3e+08",
		"digest changed 0 time(s) across 2 runs",
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
