package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/storage/resultstore"
	"repro/netfpga/sweep"
	"repro/netfpga/sweep/shard"
)

// sweepConfig is what `nf-bench sweep` parses its flags into, once.
// fleet.Req is the run config — the shard.Request value every worker's
// Open frame carries, the in-process one's included — and the flags
// that tune the coordinator are set on fleet directly. The rest is CLI
// plumbing: where the fleet's workers come from, the store, and what
// to compare against.
type sweepConfig struct {
	fleet shard.Fleet

	procs int      // local `shard-worker` subprocesses (-shards N, N > 1)
	addrs []string // -connect workers
	chaos uint64
	tlsCA string

	resume, runID          string
	storeDir               string
	noStore                bool
	history                string
	out                    string
	compare                string
	compareRun             string
	quiet                  bool
	cpuprofile, memprofile string
}

// mode names the run's workers for the banner. With neither -shards N
// (N > 1) nor -connect the fleet is one in-process worker, the one
// local worker -shards 1 asks for.
func (c *sweepConfig) mode() string {
	local := c.procs
	if local+len(c.addrs) == 0 {
		local = 1
	}
	return fmt.Sprintf("fleet of %d local + %d remote workers, a pool of %d in each",
		local, len(c.addrs), c.fleet.Req.Workers)
}

// parseSweepFlags turns `nf-bench sweep` arguments into the run's
// config. Every flag error and every conflict between flags comes back
// as an error; nothing here exits or touches the store.
func parseSweepFlags(args []string) (*sweepConfig, error) {
	c := &sweepConfig{}
	fl, req := &c.fleet, &c.fleet.Req
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // errors are returned, not printed
	fs.StringVar(&req.Config, "config", "", "sweep config file (required)")
	fs.StringVar(&req.Filter, "filter", "", "cell filter: space/comma terms, '!' or '-' prefix excludes")
	resolve := runFlags(fs, req)
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	shards := fs.Int("shards", 1, "run on a fleet of N local 'nf-bench shard-worker' processes (1 = one in-process worker; digests identical); with -connect, N > 1 adds N local worker processes to the remote ones")
	connect := fs.String("connect", "", "comma-separated worker addresses (host:port) running 'nf-bench shard-worker -listen'; cells are assigned dynamically and a dead worker's cells requeue onto survivors")
	fs.DurationVar(&fl.HangTimeout, "worker-timeout", 0, "kill a fleet worker silent for this long while owing cells and requeue its cells (0 = never)")
	fs.StringVar(&c.tlsCA, "tls-ca", "", "CA certificate (PEM) to verify -connect workers against; enables TLS on every dialed worker")
	fs.Uint64Var(&c.chaos, "chaos", 0, "inject deterministic transport faults (drops, delays, duplicates, corruption, truncation, kills, hangs) on every fleet worker, scheduled from this seed; 0 = off, digests are unchanged by any seed")
	fs.StringVar(&c.resume, "resume", "", "resume an interrupted stored sweep: adopt the cells of its <run>-fleet partial (digest-verified) and execute only the remainder")
	fs.StringVar(&c.runID, "run-id", "", "run id override (default: UTC timestamp); scripting and CI resume legs need a knowable id")
	fs.DurationVar(&fl.StallTimeout, "stall-timeout", 0, "fail the run with per-worker forensics when no cell completes fleet-wide for this long (0 = never)")
	fs.StringVar(&c.storeDir, "store", "nf-results", "results store directory")
	fs.BoolVar(&c.noStore, "no-store", false, "skip the results store")
	fs.StringVar(&c.history, "history", "", "trend report: a cell's values across stored runs (key, scenario hash, or unique substring), then exit")
	fs.StringVar(&c.out, "out", "", "write the run's digests as a golden file")
	fs.StringVar(&c.compare, "compare", "", "diff the run against a golden digest file; nonzero exit on mismatch")
	fs.StringVar(&c.compareRun, "compare-run", "", "diff the run against a previous run id in the store")
	fs.BoolVar(&c.quiet, "q", false, "suppress per-cell progress lines")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stderr)
			fs.Usage()
		}
		return nil, err
	}
	resolve()
	if c.history != "" {
		return c, nil
	}
	if *shards < 1 {
		return nil, fmt.Errorf("-shards must be >= 1 (got %d)", *shards)
	}
	if *shards > 1 {
		c.procs = *shards
	}
	c.addrs = splitAddrs(*connect)
	if c.tlsCA != "" && len(c.addrs) == 0 {
		return nil, errors.New("-tls-ca verifies dialed workers: it needs -connect")
	}
	if c.resume != "" && c.noStore {
		return nil, errors.New("-resume needs the results store (-no-store conflicts)")
	}
	if req.Config == "" && c.resume == "" {
		// -resume may still supply the config from the interrupted
		// run's meta.
		return nil, errors.New("-config is required")
	}
	if c.chaos != 0 {
		// Chaos without a hang detector would let an injected hang stall
		// the run forever; default the watchdogs rather than demand four
		// flags for one knob.
		if fl.HangTimeout == 0 {
			fl.HangTimeout = 20 * time.Second
		}
		if fl.StallTimeout == 0 {
			fl.StallTimeout = 2 * time.Minute
		}
	}
	return c, nil
}

// loadResume reads the interrupted run's partial, <run>-fleet, and
// fills config/filter/seed from its meta where the flags left them at
// their defaults. A run that completed (one the store lists, which it
// knows from meta lines alone) has nothing to resume. A partial of another digest version fails here, up
// front, rather than cell by cell.
func loadResume(c *sweepConfig) ([]resultstore.Record, error) {
	req := &c.fleet.Req
	rst, err := resultstore.Open(c.storeDir)
	if err != nil {
		return nil, err
	}
	complete, err := rst.Runs()
	if err != nil {
		return nil, err
	}
	if slices.Contains(complete, c.resume) {
		return nil, fmt.Errorf("run %s completed; nothing to resume", c.resume)
	}
	part := c.resume + "-fleet"
	pm, recs, dropped, err := rst.ReadRun(part)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("no partial run %s in %s", part, c.storeDir)
	}
	if err != nil {
		return nil, err
	}
	if err := sweep.CheckDigestVersion("resultstore: run "+part, pm.Digest); err != nil {
		return nil, err
	}
	if req.Config == "" {
		req.Config = pm.Config
	}
	if req.Filter == "" {
		req.Filter = pm.Filter
	}
	if req.Seed == 0 {
		req.Seed = pm.Seed
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "resume: %s: %d torn trailing line(s) dropped\n", part, dropped)
	}
	fmt.Printf("resume: %d persisted cells from %s\n", len(recs), part)
	return recs, nil
}

// runSweepCmd implements `nf-bench sweep`: load a scenario-matrix config
// and run it (runSweep).
//
//	nf-bench sweep -config examples/paper.sweep
//	nf-bench sweep -config examples/paper.sweep -filter 'T4 -latency'
//	nf-bench sweep -config examples/paper.sweep -shards 4 -workers 2
//	nf-bench sweep -config examples/paper.sweep -connect host1:9090,host2:9090
//	nf-bench sweep -config examples/paper.sweep -compare testdata/golden_sweep.json
//	nf-bench sweep -config examples/paper.sweep -out golden.json
//	nf-bench sweep -config examples/matrix.sweep -compare-run <run-id>
//	nf-bench sweep -history 'T4/latency/frame=64'
func runSweepCmd(args []string) {
	c, err := parseSweepFlags(args)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "nf-bench sweep: %v\n", err)
		}
		os.Exit(2)
	}
	if c.history != "" {
		runHistory(c.storeDir, c.history)
		return
	}
	req := &c.fleet.Req
	var resumeRecs []resultstore.Record
	if c.resume != "" {
		resumeRecs, err = loadResume(c)
		fatal(err)
		if req.Config == "" {
			fatal(errors.New("-config is required (the interrupted run recorded none)"))
		}
	}

	cfg, err := sweep.LoadConfig(req.Config)
	fatal(err)
	runSweep(c, cfg, resumeRecs)
}

// runSweep is the one run path, shared by `nf-bench sweep` and the bare
// command: plan the config, execute its cells on a fleet — one
// in-process worker, or worker processes — with streaming progress,
// persist every cell into the results store, render the tables of every
// experiment that ran in full and score their claims, and optionally
// diff the run against a golden digest file or a previous stored run.
// resumeRecs are an interrupted run's persisted cells (-resume).
func runSweep(c *sweepConfig, cfg *sweep.Config, resumeRecs []resultstore.Record) {
	req := &c.fleet.Req
	groups, err := experiments.GroupsForConfig(cfg)
	fatal(err)
	stopProf := startProfiles(c.cpuprofile, c.memprofile)
	defer stopProf()

	plan, err := sweep.PlanGroups(groups, req.Filter, req.Seed)
	fatal(err)
	total := len(plan.Cells)
	fmt.Printf("sweep %q: %d cells, base seed %d, %s\n", cfg.Name, total, req.Seed, c.mode())
	if c.chaos != 0 {
		fmt.Printf("chaos: seed %d, -worker-timeout %v, -stall-timeout %v\n", c.chaos, c.fleet.HangTimeout, c.fleet.StallTimeout)
	}
	if total == 0 {
		// An empty run must not satisfy a comparison gate: a filter
		// that silently stopped matching would otherwise turn the CI
		// golden gate into a vacuous pass.
		if c.compare != "" || c.compareRun != "" {
			fatal(errors.New("filter matched no cells, nothing to compare"))
		}
		fmt.Println("nothing to do (filter matched no cells)")
		return
	}

	var st *resultstore.Store
	var prev map[string]string
	stale := 0
	// Nanosecond granularity: back-to-back sweeps in one second must
	// not collide on the store's exclusive run file.
	runID := time.Now().UTC().Format("20060102-150405.000000000")
	if c.runID != "" {
		runID = c.runID
	}
	if !c.noStore {
		st, err = resultstore.Open(c.storeDir)
		fatal(err)
		prev, stale = st.LatestDigests()
	}
	// The stored run to compare against is read before any cell runs,
	// so one of another seed or digest version fails at once.
	var base map[string]string
	if c.compareRun != "" {
		cst := st
		if cst == nil {
			cst, err = resultstore.Open(c.storeDir)
			fatal(err)
		}
		base, err = storedRun(cst, c.compareRun, req.Seed)
		fatal(err)
	}
	meta := resultstore.Meta{
		Run: runID, Name: cfg.Name, Config: req.Config, Filter: req.Filter,
		Seed: req.Seed, Workers: req.Workers, Stamp: time.Now().UTC().Format(time.RFC3339),
		ResumedFrom: c.resume,
	}

	// Digest-verify the resumed records against this plan before they
	// count: a record for a cell the plan does not expand, one that ran
	// with another seed than the plan gives its cell, or one whose digest
	// does not reproduce from its content, is re-run instead of trusted,
	// and stays out of the new partial. Conflicting persisted records are
	// a determinism bug and fail loudly. The fleet adopts the rest,
	// fleet.Completed, itself.
	if len(resumeRecs) > 0 {
		m := plan.Merger()
		rejected := 0
		for _, r := range resumeRecs {
			_, dup, err := m.Adopt(r)
			switch {
			case err != nil && errors.Is(err, sweep.ErrDiverged):
				fatal(err)
			case err != nil:
				rejected++
			case dup:
			default:
				c.fleet.Completed = append(c.fleet.Completed, r)
			}
		}
		fmt.Printf("resume: %d cells verified, %d rejected, %d left to run\n",
			len(c.fleet.Completed), rejected, total-len(c.fleet.Completed))
	}

	start := time.Now()
	done := 0
	progress := func(cr sweep.CellResult) {
		done++
		if c.quiet {
			return
		}
		fmt.Printf("[%*d/%d] %-52s %s\n", digits(total), done, total, cr.Cell.Key, summarizeCell(cr))
	}

	rs := runFleet(plan, st, meta, c, progress)
	wall := time.Since(start)
	fmt.Printf("sweep done: %d cells in %v (%d failed)\n", len(rs.Cells), wall.Round(time.Millisecond), len(rs.Failed()))
	for _, f := range rs.Failed() {
		fmt.Printf("  FAILED %s: %s\n", f.Cell.Key, f.Err)
	}
	if st != nil {
		fmt.Printf("stored run %s in %s (%d cells)\n", runID, c.storeDir, len(rs.Cells))
		if stale > 0 {
			fmt.Printf("vs previous store state: %d cells last stored with another digest version, not compared\n", stale)
		}
		if len(prev) > 0 {
			reportStoreDiff(prev, rs)
		}
	}
	fmt.Println()
	experiments.Report(os.Stdout, cfg, rs)

	if c.out != "" {
		note := fmt.Sprintf("generated by `nf-bench sweep -config %s -seed %d -out`", req.Config, req.Seed)
		fatal(sweep.WriteGolden(c.out, sweep.NewGolden(note, req.Seed, rs)))
		fmt.Printf("wrote golden digests to %s (%d cells)\n", c.out, len(rs.Cells))
	}

	failed := len(rs.Failed()) > 0
	if c.compareRun != "" {
		diffs := runDiffs(base, rs, req.Filter != "")
		failed = printDiffs(fmt.Sprintf("vs run %s", c.compareRun), diffs) || failed
	}
	if c.compare != "" {
		g, err := sweep.ReadGolden(c.compare)
		fatal(err)
		if g.Seed != req.Seed {
			fatal(fmt.Errorf("golden %s was generated with seed %d, run used %d", c.compare, g.Seed, req.Seed))
		}
		diffs := sweep.DiffGolden(g, rs, req.Filter != "")
		failed = printDiffs(fmt.Sprintf("vs golden %s", c.compare), diffs) || failed
	}
	if failed {
		stopProf()
		os.Exit(1)
	}
}

// storedRun returns a stored run's key -> digest map for -compare-run.
// A run stored with another base seed is an error naming both seeds, as
// a golden of another seed is: its cells ran with other seeds, so every
// one would differ. So is a run of another digest version, naming both
// versions.
func storedRun(st *resultstore.Store, run string, seed uint64) (map[string]string, error) {
	meta, old, err := st.RunDigests(run)
	if err != nil {
		return nil, err
	}
	if meta.Seed != seed {
		return nil, fmt.Errorf("run %s was stored with seed %d, this run used %d", run, meta.Seed, seed)
	}
	if err := sweep.CheckDigestVersion("resultstore: run "+run, meta.Digest); err != nil {
		return nil, err
	}
	return old, nil
}

// runDiffs diffs rs against a stored run's digests. A filtered run
// compares only the cells that ran; stored cells the filter excluded
// are not "removed", and are deleted from old.
func runDiffs(old map[string]string, rs *sweep.Results, filtered bool) []string {
	digests := rs.Digests()
	if filtered {
		for k := range old {
			if _, ok := digests[k]; !ok {
				delete(old, k)
			}
		}
	}
	return resultstore.Diff(old, digests)
}

// workerPlan resolves a shard request into the full sweep plan — the
// worker-side twin of the coordinator's planning, sharing one config
// file so both sides always expand identical cells.
func workerPlan(req shard.Request) (*sweep.Plan, error) {
	cfg, err := sweep.LoadConfig(req.Config)
	if err != nil {
		return nil, err
	}
	groups, err := experiments.GroupsForConfig(cfg)
	if err != nil {
		return nil, err
	}
	return sweep.PlanGroups(groups, req.Filter, req.Seed)
}

// localWorker names the in-process fleet worker.
const localWorker = "local"

// splitAddrs parses the -connect list: comma-separated host:port
// entries, empty entries dropped.
func splitAddrs(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// runFleet executes the plan on the fleet coordinator: one in-process
// worker serving the plan over pipes, or subprocess workers (spawned
// `nf-bench shard-worker` over stdio), dialed TCP workers, or both
// mixed. Cells stream into one partial run as they arrive — a crash
// loses nothing already harvested, and -resume finishes the rest — then
// fold into a complete, verified run whose digests are
// byte-identical to a single-process sweep regardless of worker deaths
// or requeues along the way.
func runFleet(plan *sweep.Plan, st *resultstore.Store, meta resultstore.Meta,
	c *sweepConfig, progress func(sweep.CellResult)) *sweep.Results {

	var tlsCfg *tls.Config
	if c.tlsCA != "" {
		pem, err := os.ReadFile(c.tlsCA)
		fatal(err)
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pem) {
			fatal(fmt.Errorf("no CA certificate found in %s", c.tlsCA))
		}
		tlsCfg = &tls.Config{RootCAs: pool}
	}

	// Every worker is a fleet Connector, a (name, dial) pair — serve the
	// plan in-process, spawn a local `shard-worker` subprocess or dial a
	// TCP/TLS address — redialed with backoff after every death. -chaos
	// wraps each dial so every incarnation gets its own deterministic
	// fault stream.
	fl := &c.fleet
	addWorker := func(name string, dial func() (*shard.Endpoint, error)) {
		if c.chaos != 0 {
			dial = shard.ChaosDial(name, dial, c.chaos)
		}
		fl.Connectors = append(fl.Connectors, &shard.Connector{Name: name, Dial: dial})
	}
	if c.procs+len(c.addrs) == 0 {
		// The in-process worker serves the coordinator's own plan, so
		// nothing is planned twice and main mode's in-memory config
		// needs no file.
		planFor := func(shard.Request) (*sweep.Plan, error) { return plan, nil }
		addWorker(localWorker, func() (*shard.Endpoint, error) {
			return shard.PipeWorker(context.Background(), localWorker, planFor), nil
		})
	}
	if c.procs > 0 {
		exe, err := os.Executable()
		fatal(err)
		for i := 0; i < c.procs; i++ {
			name := fmt.Sprintf("proc:%d", i)
			addWorker(name, func() (*shard.Endpoint, error) {
				cmd := exec.Command(exe, "shard-worker")
				cmd.Stderr = os.Stderr
				in, err := cmd.StdinPipe()
				if err != nil {
					return nil, err
				}
				out, err := cmd.StdoutPipe()
				if err != nil {
					return nil, err
				}
				if err := cmd.Start(); err != nil {
					return nil, err
				}
				return &shard.Endpoint{
					Name: name, In: in, Out: out,
					Kill: cmd.Process.Kill, Wait: cmd.Wait,
				}, nil
			})
		}
	}
	for _, addr := range c.addrs {
		addr := addr
		if tlsCfg != nil {
			addWorker("tls:"+addr, func() (*shard.Endpoint, error) { return shard.DialTLS(addr, tlsCfg.Clone()) })
		} else {
			addWorker("tcp:"+addr, func() (*shard.Endpoint, error) { return shard.Dial(addr) })
		}
	}

	// The streamed partial run: every adopted cell is on disk before
	// the merge. Resumed cells are written up front — the new partial
	// alone is a complete account of the merged run, whatever happened
	// to the interrupted one's files.
	var rw *resultstore.RunWriter
	partID := meta.Run + "-fleet"
	if st != nil {
		pm := meta
		pm.Run = partID
		pm.Partial = true
		pm.Shard = fmt.Sprintf("fleet/%d", len(fl.Connectors))
		var err error
		rw, err = st.Begin(pm)
		fatal(err)
		for _, rec := range fl.Completed {
			fatal(rw.Append(rec))
		}
	}

	requeued := 0
	fl.OnEvent = func(ev shard.FleetEvent) {
		switch ev.Kind {
		case "death", "hang":
			// Recovery is always worth a line, even under -q: a silent
			// requeue would hide that the run exercised the fault path.
			requeued += ev.Cells
			fmt.Fprintf(os.Stderr, "fleet: worker %s %s (%s), %d cells requeued\n",
				ev.Worker, ev.Kind, ev.Detail, ev.Cells)
		case "quarantine":
			// Degradation states likewise: a quarantined worker is one
			// path fewer to completion.
			fmt.Fprintf(os.Stderr, "fleet: %s %s (%s)\n", ev.Worker, ev.Kind, ev.Detail)
		default:
			// The in-process worker's session opening and closing is no
			// news.
			session := ev.Kind == "hello" || ev.Kind == "done"
			if !c.quiet && !(session && ev.Worker == localWorker) {
				fmt.Printf("fleet: %s %s %s\n", ev.Worker, ev.Kind, ev.Detail)
			}
		}
	}

	rs, util, runErr := fl.Run(context.Background(), plan, func(cr sweep.CellResult) {
		if rw != nil {
			fatal(rw.Append(cr.Record()))
		}
		progress(cr)
	})
	if rw != nil {
		fatal(rw.Close())
	}
	if runErr != nil {
		if st != nil {
			fmt.Fprintf(os.Stderr, "nf-bench sweep: partial fleet run preserved in %s: %s\n",
				st.Dir(), partID)
		}
		fatal(runErr)
	}
	if st != nil {
		meta.Transport = transportLabel(c.procs, len(c.addrs))
		meta.Requeued = requeued
		meta.Util = &util
		meta.WorkerUtil = workerUtilMeta(fl.Reports)
		n, err := st.MergeRuns(meta, []string{partID}, plan.Keys())
		fatal(err)
		fmt.Printf("merged fleet run into %s (%d cells, %d requeued)\n", meta.Run, n, requeued)
	}
	fmt.Printf("fleet utilization: %d pool workers over %d endpoints, %d cells, %.0f%% efficient (busy %.0fms / wall %.0fms)\n",
		util.Workers, len(fl.Connectors), util.Jobs, 100*util.Efficiency, util.BusyMS, util.WallMS)
	return rs
}

// workerUtilMeta sorts the coordinator's per-worker reports by worker
// name, the order a run's meta persists them in.
func workerUtilMeta(reports []sweep.WorkerReport) []sweep.WorkerReport {
	sort.Slice(reports, func(i, j int) bool { return reports[i].Name < reports[j].Name })
	return reports
}

// transportLabel names how a fleet reached its workers for the run
// metadata: "proc", "tcp" or "proc+tcp", and empty for the in-process
// worker.
func transportLabel(procs, tcps int) string {
	var via []string
	if procs > 0 {
		via = append(via, "proc")
	}
	if tcps > 0 {
		via = append(via, "tcp")
	}
	return strings.Join(via, "+")
}

// runHistory implements -history: resolve the query to one cell key
// of the store's complete runs (exact key or hash wins outright, a
// substring must be unique — ambiguity errors out listing every
// candidate) and report the cell's digest and values across every
// complete run in run-id order — the store-backed trend view of a
// scenario. Partial runs are skipped unread past their meta line; a
// complete run with a line that does not read fails the report.
func runHistory(storeDir, query string) {
	st, err := resultstore.Open(storeDir)
	fatal(err)
	key, err := st.Resolve(query)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nf-bench sweep: %v\n", err)
		os.Exit(1)
	}
	runs, err := st.Runs()
	fatal(err)

	type hit struct {
		run string
		rec resultstore.Record
	}
	var hits []hit
	for _, run := range runs {
		_, recs, dropped, err := st.ReadRun(run)
		fatal(err)
		if dropped > 0 {
			fatal(fmt.Errorf("run %s: %d line(s) do not read", run, dropped))
		}
		for _, rec := range recs {
			if rec.Key == key {
				hits = append(hits, hit{run: run, rec: rec})
			}
		}
	}
	if len(hits) == 0 {
		fmt.Fprintf(os.Stderr, "nf-bench sweep: no stored cell matches %q in %s\n", query, storeDir)
		os.Exit(1)
	}
	fmt.Printf("history of %s (hash %s): %d stored runs\n\n", key, resultstore.Hash(key), len(hits))
	// Column set is the union across runs: a measure that renamed its
	// values mid-history still shows every metric that ever existed.
	union := map[string]float64{}
	for _, h := range hits {
		for vk := range h.rec.Values {
			union[vk] = 0
		}
	}
	valKeys := sweep.SortKeys(union)
	header := []string{"run", "digest", "Δ"}
	header = append(header, valKeys...)
	rows := [][]string{header}
	changes := 0
	prevDigest := ""
	for _, h := range hits {
		marker := ""
		if prevDigest != "" && h.rec.Digest != prevDigest {
			marker = "*"
			changes++
		}
		prevDigest = h.rec.Digest
		row := []string{h.run, h.rec.Digest, marker}
		for _, vk := range valKeys {
			if v, ok := h.rec.Values[vk]; ok {
				row = append(row, fmt.Sprintf("%.6g", v))
			} else {
				row = append(row, "-")
			}
		}
		if h.rec.Err != "" {
			row[len(row)-1] += " ERR:" + h.rec.Err
		}
		rows = append(rows, row)
	}
	printAligned(rows)
	last := hits[len(hits)-1]
	fmt.Printf("\ndigest changed %d time(s) across %d runs; latest digest %s (run %s)\n",
		changes, len(hits), last.rec.Digest, last.run)
}

// printAligned renders rows with per-column padding; row 0 is the
// header.
func printAligned(rows [][]string) {
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Print("  ")
			}
			fmt.Printf("%-*s", widths[i], cell)
		}
		fmt.Println()
	}
}

// summarizeCell renders one streamed cell's headline for progress
// output: the first few values in sorted key order.
func summarizeCell(cr sweep.CellResult) string {
	if cr.Err != "" {
		return "ERR " + cr.Err
	}
	keys := sweep.SortKeys(cr.Values)
	if len(keys) > 3 {
		keys = keys[:3]
	}
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%.4g", k, cr.Values[k]))
	}
	return strings.Join(parts, " ")
}

// reportStoreDiff summarises how the new run moved relative to the
// store's previous latest digests.
func reportStoreDiff(prev map[string]string, rs *sweep.Results) {
	changed, newCells := 0, 0
	var lines []string
	for _, cr := range rs.Cells {
		old, ok := prev[cr.Cell.Key]
		switch {
		case !ok:
			newCells++
		case old != cr.Digest:
			changed++
			lines = append(lines, "  changed vs previous: "+cr.Cell.Key)
		}
	}
	sort.Strings(lines)
	fmt.Printf("vs previous store state: %d unchanged, %d changed, %d new\n",
		len(rs.Cells)-changed-newCells, changed, newCells)
	for _, l := range lines {
		fmt.Println(l)
	}
}

// printDiffs reports a diff list; returns true when differences exist.
func printDiffs(label string, diffs []string) bool {
	if len(diffs) == 0 {
		fmt.Printf("compare %s: all digests match\n", label)
		return false
	}
	fmt.Printf("compare %s: %d differences\n", label, len(diffs))
	for _, d := range diffs {
		fmt.Println("  " + d)
	}
	return true
}

func digits(n int) int { return len(fmt.Sprint(n)) }

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "nf-bench sweep: %v\n", err)
		os.Exit(1)
	}
}
