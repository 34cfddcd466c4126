package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/netfpga"
)

// fmtDigest is the digest's first formulation, through fmt and a
// strings.Builder: the oracle the append-built one must match byte for
// byte, since every golden table and stored run carries its output. The
// engine's event count is not in the text (DigestVersion 2).
func fmtDigest(r *CellResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nseed=%#x sim=%d\n", r.Cell.Key, r.Seed, r.SimTime)
	for _, k := range SortKeys(r.Values) {
		fmt.Fprintf(&b, "v %s=%016x\n", k, math.Float64bits(r.Values[k]))
	}
	for _, k := range SortKeys(r.Labels) {
		fmt.Fprintf(&b, "l %s=%s\n", k, r.Labels[k])
	}
	if r.Err != "" {
		fmt.Fprintf(&b, "err %s\n", r.Err)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// TestDigestMatchesFmtOracle: the digest is unchanged from the fmt
// formulation over every cell of the paper and hybrid golden tables
// (key and values as recorded, with the seed their base seed derives)
// and over edge values — NaNs, signed zeros and infinities, extreme
// counts, empty and nil maps, and keys, labels and errors holding '='
// or newlines.
func TestDigestMatchesFmtOracle(t *testing.T) {
	var cells []CellResult
	for _, name := range []string{"golden_sweep.json", "golden_hybrid.json"} {
		g, err := ReadGolden(filepath.Join("..", "..", "internal", "experiments", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		for key, gc := range g.Cells {
			cells = append(cells, CellResult{Cell: Cell{Key: key}, Seed: SeedForKey(g.Seed, key),
				Values: gc.Values, SimTime: netfpga.Time(len(key)) * netfpga.Microsecond,
				Events: uint64(len(gc.Values)) * 7919})
		}
	}
	if len(cells) < 100 {
		t.Fatalf("only %d golden cells read", len(cells))
	}
	edge := map[string]float64{
		"nan":       math.NaN(),
		"nan-bits":  math.Float64frombits(0x7ff8000000000001),
		"-nan":      math.Float64frombits(0xfff8000000000000),
		"zero":      0,
		"-zero":     math.Copysign(0, -1),
		"+inf":      math.Inf(1),
		"-inf":      math.Inf(-1),
		"max":       math.MaxFloat64,
		"tiny":      math.SmallestNonzeroFloat64,
		"a=b":       1,
		"line\nkey": -2.5,
		"":          3,
	}
	labels := map[string]string{
		"eq":    "a=b=c",
		"nl":    "first\nsecond\n",
		"empty": "",
		"k=v":   "x",
		"":      "unnamed",
	}
	cells = append(cells,
		CellResult{},
		CellResult{Cell: Cell{Key: "edge/k=v\nnext"}, Values: map[string]float64{}, Labels: map[string]string{}},
		CellResult{Cell: Cell{Key: "edge"}, Seed: math.MaxUint64, SimTime: -1, Events: math.MaxUint64,
			Values: edge, Labels: labels, Err: "boom: a=b\nsecond line"},
		CellResult{Cell: Cell{Key: "edge/min"}, SimTime: math.MinInt64, Values: edge},
		CellResult{Cell: Cell{Key: "edge/labels"}, Seed: 1, Labels: labels},
	)
	for i := range cells {
		r := &cells[i]
		if got, want := r.digest(), fmtDigest(r); got != want {
			t.Errorf("cell %q: digest %s, fmt oracle %s", r.Cell.Key, got, want)
		}
	}
}
