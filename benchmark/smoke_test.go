package main

import (
	"bytes"
	"encoding/json"
	"go/format"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smokeSizes is every workload at about a hundredth of fullSizes; the
// paper sweep is filtered down to the cheapest cell of each experiment.
var smokeSizes = sizes{
	meshMin64US: 300,
	meshMTUUS:   640,
	nicUS:       160,
	hybridUS:    90_000,
	paperFilter: "F1/board=1g-cml F2/firewall=on T1/board=sume/project=reference_iotest/frame=1518 " +
		"T2/dev=qdr/pattern=rand-512 T3/project=reference_nic/pcie=gen2/frame=9000 " +
		"T4/latency/project=reference_switch/frame=1024/bg=6 T5/fib=1024/frame=1518 T6b/dut_us=1 " +
		"T7/delay_us=10/mode=naive T8a/project=osnt T9/bootdev=sata0 " +
		"matrix/board=sume/project=reference_iotest/wl=min/ber=0/seed=1",
	tinySeeds:  1,
	probeIters: 3000,
}

// benchmarkFile is the root BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload, untraced and traced, at smoke size and
// checks that what the program emits is what BENCHMARK.json and the
// metric tables declare.
func TestSmoke(t *testing.T) {
	opt := options{seed: defaultSeed, sizes: smokeSizes, out: t.TempDir()}
	emitted := map[bool]map[string]bool{false: {}, true: {}} // traced -> names some workload defines
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			opt.trace = traced
			res, err := runWorkload(wl, opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			for _, f := range res.Failures {
				t.Errorf("%s traced=%v: check failed on %s: %s", wl.name, traced, f.Key, f.Why)
			}
			if res.Ops == 0 {
				t.Errorf("%s traced=%v: no cell was checked", wl.name, traced)
			}
			for name, st := range res.Metrics {
				emitted[traced][name] = true
				if math.IsNaN(st.Median) || math.IsInf(st.Median, 0) || st.Unit == "" || st.N < 1 {
					t.Errorf("%s traced=%v: %s = %+v", wl.name, traced, name, st)
				}
			}

			// The contract's JSON line carries exactly the declared names.
			raw, err := contractLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var line struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(raw, &line); err != nil {
				t.Fatal(err)
			}
			want := declared(traced)
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: JSON line has %d metrics, %d declared", wl.name, traced, len(line.Metrics), len(want))
			}
			for _, def := range want {
				m, ok := line.Metrics[def.Name]
				if !ok || m.Unit != def.Unit {
					t.Errorf("%s traced=%v: JSON line lacks %s in %s", wl.name, traced, def.Name, def.Unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.name, def.Name, m.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(opt.out, "trace-"+wl.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", wl.name, err)
		}
	}

	// Every declared metric is defined on some workload, and nothing
	// undeclared is emitted.
	tables := map[bool][]metricDef{false: append([]metricDef{{Name: "sim.events"}}, endToEnd...), true: perLayer}
	for traced, defs := range tables {
		declaredNames := map[string]bool{}
		for _, def := range defs {
			declaredNames[def.Name] = true
			if !emitted[traced][def.Name] {
				t.Errorf("traced=%v: no workload emits declared metric %s", traced, def.Name)
			}
		}
		for name := range emitted[traced] {
			if !declaredNames[name] {
				t.Errorf("traced=%v: emitted metric %s is not declared", traced, name)
			}
		}
	}
}

// TestBenchmarkFile pins BENCHMARK.json to the tables in the code.
func TestBenchmarkFile(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" || bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Command) == 0 {
		t.Errorf("command %v, paths %v, run_seconds %d", bf.Command, bf.Paths, bf.RunSeconds)
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if got := bf.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, wl.name, wl.why)
		}
		if !nameRE.MatchString(wl.name) || len(wl.why) > 200 {
			t.Errorf("workload %q: bad name or why too long", wl.name)
		}
	}

	e2e := declared(false)
	if len(bf.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program declares %d", len(bf.EndToEnd), len(e2e))
	}
	for i, def := range e2e {
		got := bf.EndToEnd[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || got.Bound != def.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, the program %+v", i, got, def)
		}
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program declares %d", len(bf.PerLayer), len(perLayer))
	}
	for i, def := range perLayer {
		if got := bf.PerLayer[i]; got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %+v, the program %+v", i, got, def)
		}
	}

	seen := map[string]bool{}
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(def.Name) || !unitRE.MatchString(def.Unit) || seen[def.Name] ||
			(def.Better != "lower" && def.Better != "higher") {
			t.Errorf("metric %+v: bad or repeated name, unit or direction", def)
		}
		seen[def.Name] = true
	}
}

// TestGofmt keeps the package gofmt-clean (go vet runs over ./... in CI).
func TestGofmt(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out, err := format.Source(src)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !bytes.Equal(src, out) {
			t.Errorf("%s needs gofmt", f)
		}
	}
}
