package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Config is a sweep configuration file (JSON): a set of named paper
// experiments to run as sweeps, plus custom board x project x workload x
// BER scenario matrices executed with the GenericMeasure.
//
//	{
//	  "name": "paper",
//	  "experiments": ["F1", "T1", "T4"],
//	  "scenarios": [{
//	    "name": "mesh",
//	    "boards": ["sume", "sume-100g"],
//	    "projects": ["reference_switch"],
//	    "workloads": [{"name": "imix"},
//	                  {"name": "min", "sizes": [{"bytes": 60, "weight": 1}]}],
//	    "bers": [0, 1e-7],
//	    "seeds": [1],
//	    "window_us": 100
//	  }]
//	}
type Config struct {
	// Name labels the sweep in run metadata.
	Name string `json:"name"`
	// Experiments lists internal/experiments IDs to run as sweep
	// groups (the caller resolves them; sweep has no dependency on the
	// experiment definitions).
	Experiments []string `json:"experiments,omitempty"`
	// Scenarios are custom matrices driven by GenericMeasure.
	Scenarios []Spec `json:"scenarios,omitempty"`
}

// LoadConfig reads and validates a sweep config file.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("sweep: parsing %s: %w", path, err)
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("sweep: %s: config has no name", path)
	}
	if len(cfg.Experiments) == 0 && len(cfg.Scenarios) == 0 {
		return nil, fmt.Errorf("sweep: %s: config has no experiments and no scenarios", path)
	}
	seen := map[string]bool{}
	for i := range cfg.Scenarios {
		s := &cfg.Scenarios[i]
		if s.Name == "" {
			return nil, fmt.Errorf("sweep: %s: scenario %d has no name", path, i)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("sweep: %s: duplicate scenario %q", path, s.Name)
		}
		seen[s.Name] = true
		if s.NoDevice {
			return nil, fmt.Errorf("sweep: %s: scenario %q: no_device scenarios need a code-defined measure", path, s.Name)
		}
		if _, ok := builtinMeasure(s.Measure); !ok {
			return nil, fmt.Errorf("sweep: %s: scenario %q: unknown measure %q (want generic or latency)",
				path, s.Name, s.Measure)
		}
		if len(s.Projects) == 0 {
			return nil, fmt.Errorf("sweep: %s: scenario %q has no projects", path, s.Name)
		}
		// Expand once to surface board/project/axis errors at load time.
		if _, err := s.Expand(""); err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", path, err)
		}
	}
	return &cfg, nil
}

// builtinMeasure resolves a spec's Measure name to the built-in it
// selects.
func builtinMeasure(name string) (Measure, bool) {
	switch name {
	case "", "generic":
		return GenericMeasure, true
	case "latency":
		return LatencyMeasure, true
	}
	return nil, false
}

// ScenarioGroups returns the config's custom scenarios as runnable
// groups, each driven by the built-in measure its spec selects.
func (cfg *Config) ScenarioGroups() []Group {
	groups := make([]Group, len(cfg.Scenarios))
	for i := range cfg.Scenarios {
		m, _ := builtinMeasure(cfg.Scenarios[i].Measure)
		groups[i] = Group{Spec: cfg.Scenarios[i], Measure: m}
	}
	return groups
}

// Golden is a checked-in digest table: one digest per cell key, plus
// the engine's event count and the values for human-readable diffs.
// Golden files are regenerated with
// `go test ./internal/experiments -run TestGoldenSweep -update` or
// `nf-bench sweep -out`.
type Golden struct {
	// Note documents how to regenerate the file.
	Note string `json:"note,omitempty"`
	// Seed is the base seed the digests were generated with.
	Seed uint64 `json:"seed"`
	// Cells maps cell key to its digest and values.
	Cells map[string]GoldenCell `json:"cells"`
}

// GoldenCell is one cell's golden record. Events sits beside the
// digest, not inside it: DiffGolden judges results only, and a test
// that pins how the engine got there (the per-edge reference against
// the default engine) compares Events itself.
type GoldenCell struct {
	Digest string             `json:"digest"`
	Events uint64             `json:"events"`
	Values map[string]float64 `json:"values,omitempty"`
}

// NewGolden captures a result set as a golden table.
func NewGolden(note string, seed uint64, rs *Results) *Golden {
	g := &Golden{Note: note, Seed: seed, Cells: make(map[string]GoldenCell, len(rs.Cells))}
	for _, c := range rs.Cells {
		g.Cells[c.Cell.Key] = GoldenCell{Digest: c.Digest, Events: c.Events, Values: c.Values}
	}
	return g
}

// WriteGolden writes the table as stable, sorted JSON.
func WriteGolden(path string, g *Golden) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadGolden loads a golden table.
func ReadGolden(path string) (*Golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g Golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("sweep: parsing golden %s: %w", path, err)
	}
	return &g, nil
}

// DiffGolden compares a result set against a golden table and returns
// one human-readable line per difference (empty means identical).
// Cells in the results but not the golden are "new"; golden cells the
// run did not produce are reported missing only when the run was
// unfiltered (filtered reports compare just the cells that ran).
func DiffGolden(g *Golden, rs *Results, filtered bool) []string {
	var diffs []string
	for _, c := range rs.Cells {
		want, ok := g.Cells[c.Cell.Key]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("new cell: %s", c.Cell.Key))
			continue
		}
		if want.Digest == c.Digest {
			continue
		}
		line := fmt.Sprintf("changed: %s (digest %s -> %s)", c.Cell.Key, want.Digest, c.Digest)
		for _, k := range SortKeys(c.Values) {
			if old, ok := want.Values[k]; ok && old != c.Values[k] {
				line += fmt.Sprintf("\n    %s: %v -> %v", k, old, c.Values[k])
			}
		}
		if c.Err != "" {
			line += fmt.Sprintf("\n    err: %s", c.Err)
		}
		diffs = append(diffs, line)
	}
	if !filtered {
		have := make(map[string]bool, len(rs.Cells))
		for _, c := range rs.Cells {
			have[c.Cell.Key] = true
		}
		var missing []string
		for k := range g.Cells {
			if !have[k] {
				missing = append(missing, k)
			}
		}
		sort.Strings(missing)
		for _, k := range missing {
			diffs = append(diffs, fmt.Sprintf("missing cell: %s", k))
		}
	}
	return diffs
}
