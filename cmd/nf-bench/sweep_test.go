package main

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/netfpga"
	"repro/netfpga/sweep/shard"
)

// TestParseSweepFlags: flags -> run config, table-driven. Each case
// names the flags on top of `-config c` and edits the default config
// into the one it expects, or names the error.
func TestParseSweepFlags(t *testing.T) {
	defaults := func() *sweepConfig {
		return &sweepConfig{
			fleet: shard.Fleet{
				Req:      shard.Request{Config: "c", Workers: runtime.GOMAXPROCS(0)},
				Fallback: true,
			},
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
		{args: "-shards 2 -fallback=false", want: func(c *sweepConfig) { c.procs, c.fleet.Fallback = 2, false }},
		{args: "-fidelity hybrid", want: func(c *sweepConfig) { c.fleet.Req.Fidelity = netfpga.FidelityHybrid }},
		{args: "-workers 3 -seed 9 -filter T4", want: func(c *sweepConfig) {
			r := &c.fleet.Req
			r.Workers, r.Seed, r.Filter = 3, 9, "T4"
		}},
		{args: "-shards 2 -resume x -store s", want: func(c *sweepConfig) {
			c.procs, c.resume, c.storeDir = 2, "x", "s"
		}},

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
		{args: "-chaos 7", wantErr: "-chaos needs a fleet"},
		{args: "-fallback=false -worker-timeout 5s", wantErr: "-fallback, -worker-timeout needs a fleet"},
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
