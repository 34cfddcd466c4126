package resultstore

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canonjson"
)

// plainASCII reports whether json.Marshal writes s verbatim between
// quotes and s is ASCII: the strings the canonical writer must not
// decline.
func plainASCII(s string) bool {
	b, _ := json.Marshal(s)
	return string(b) == `"`+s+`"` && strings.IndexFunc(s, func(r rune) bool { return r >= 0x80 }) < 0
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// sameRecord reports whether two records are equal, float bits included.
func sameRecord(a, b Record) bool {
	bits := func(m map[string]float64) map[string]uint64 {
		if m == nil {
			return nil
		}
		out := make(map[string]uint64, len(m))
		for k, v := range m {
			out[k] = math.Float64bits(v)
		}
		return out
	}
	if !reflect.DeepEqual(bits(a.Values), bits(b.Values)) {
		return false
	}
	a.Values, b.Values = nil, nil
	return reflect.DeepEqual(a, b)
}

// FuzzStoreLine: a cell line from the canonical writer is exactly
// json.Marshal's bytes, or the writer declines, and it never declines a
// record of plain ASCII strings and finite values. Any line the
// canonical reader accepts decodes exactly as json.Unmarshal decodes it,
// float bits included, and the writer's lines always read back.
func FuzzStoreLine(f *testing.F) {
	raws := []string{
		`{"cell":{"key":"m/p=reference_switch/wl=imix","digest":"d","seed":7,"values":{"a":-0,"b":1e+21,"c":1e-7},"labels":{"l":"v"},"sim_ps":40000000,"events":1234,"err":"boom"}}`,
		`{"meta":{"run":"fx-s0","seed":7,"partial":true,"shard":"0/2"}}`,
		`{"cell":{"key":"T<1>/a&b=\"q\"/ü","digest":"d1","seed":11,"values":{"big":1e+21,"small":5e-324,"v":-0,"x":1.5},"labels":{"html":"<b>&amp;</b>","nl":"line\nbreak"},"sim_ps":10000,"events":42}}`,
		`{"cell":{"key":"zeta","digest":"d3","seed":18446744073709551615,"values":{"neg0":-0},"sim_ps":1}}`,
		`{"cell":{"digest":"d","key":"k","seed":1}}`,
		`{"cell":{"key":"k","digest":"d","seed":1,"extra":true}}`,
		`{"cell":{"key":"k","digest":"d","seed":1}}}`,
		`{"cell":{"key":"k","digest":"d","seed":1,"values":{"x":1e400}}}`,
		`{"cell":{"key":"k","digest":"d","seed":1,"values":{}}}`,
		`{"cell":{"key":"k","digest":"d","seed":-1}}`,
		"{\"cell\":{\"key\":\"\xff\",\"digest\":\"\t\",\"seed\":1}}",
	}
	for i, s := range []struct {
		key, digest string
		seed        uint64
		v1, v2      float64
		lv, err     string
		simPS       int64
		events      uint64
		shape       uint8
	}{
		{"m/p=reference_switch", "d", 7, 12, 9.5, "sume", "", 40000000, 1234, 0},
		{"T<1>/a&b", "d", 1, math.Copysign(0, -1), 1e21, "<b>", "", 1, 1, 0},
		{"k", "d", 1, 1e-7, 5e-324, "v", "e", 0, 0, 0},
		{"line\u2028sep", "d", 1, 1e-9, 1e21, "\xff", "e", 0, 0, 0},
		{"k", "", math.MaxUint64, math.MaxFloat64, -math.MaxFloat64, "", "", math.MinInt64, math.MaxUint64, 3},
		{"k", "d", 1, math.NaN(), math.Inf(1), "v", "", 0, 0, 0},
		{"k", "d", 1, math.Inf(-1), 1e20, "v", "fleet: job \"x\" panicked", 0, 0, 1},
	} {
		f.Add([]byte(raws[i]), s.key, s.digest, s.seed, s.v1, s.v2, s.lv, s.err, s.simPS, s.events, s.shape)
	}
	for _, n := range []string{"1.", ".5", "+1", "01", "-01", "-", "1e", "0.e5", "1E+05", "-0", "0e0", "1.5e-7"} {
		raws = append(raws, `{"cell":{"key":"k","digest":"d","seed":`+n+`}}`,
			`{"cell":{"key":"k","digest":"d","seed":1,"values":{"x":`+n+`}}}`)
	}
	for _, raw := range raws[7:] {
		f.Add([]byte(raw), "k", "d", uint64(1), 1.0, 2.0, "v", "", int64(0), uint64(0), uint8(0))
	}
	f.Fuzz(func(t *testing.T, raw []byte, key, digest string, seed uint64, v1, v2 float64,
		lv, errStr string, simPS int64, events uint64, shape uint8) {
		r := Record{Key: key, Digest: digest, Seed: seed, SimPS: simPS, Events: events, Err: errStr}
		if shape&1 == 0 {
			r.Values = map[string]float64{key: v1, lv: v2}
		}
		if shape&2 == 0 {
			r.Labels = map[string]string{errStr: lv}
		}
		got, ok := appendCellLine(nil, &r)
		want, err := json.Marshal(line{Cell: &r})
		plain := plainASCII(key) && plainASCII(digest) && plainASCII(errStr) && plainASCII(lv) &&
			(r.Values == nil || finite(v1) && finite(v2))
		switch {
		case ok && (err != nil || string(got) != string(want)):
			t.Fatalf("writer wrote\n%s\njson.Marshal\n%s (%v)", got, want, err)
		case !ok && plain:
			t.Fatalf("writer declined a plain record: %+v", r)
		case ok:
			if back, ok := parseLine(string(got)); !ok || !sameRecord(back, r) {
				t.Fatalf("writer's line does not read back: %s", got)
			}
		}
		if hot, ok := parseLine(string(raw)); ok {
			var ref line
			if err := json.Unmarshal(raw, &ref); err != nil || ref.Meta != nil || ref.Cell == nil || !sameRecord(hot, *ref.Cell) {
				t.Fatalf("reader accepted %q as %+v; json.Unmarshal gives %+v, %v", raw, hot, ref.Cell, err)
			}
		}
	})
}

// parseLine is MergeRuns' canonical read of one line, widened to the
// whole record.
func parseLine(s string) (Record, bool) {
	var r Record
	ok := canonjson.ParseCell(s, `{"cell":`, "}", &r)
	return r, ok
}

// partLines writes a partial run holding lines after its meta line.
func partLines(t *testing.T, st *Store, run string, lines ...string) {
	t.Helper()
	data := fmt.Sprintf("{\"meta\":{\"run\":%q,\"partial\":true}}\n", run)
	for _, l := range lines {
		data += l + "\n"
	}
	if err := os.WriteFile(st.runPath(run), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTornCellLinesKeepErrors: every strict prefix of a stored cell
// line fails MergeRuns with the error encoding/json gives for it, the
// text MergeRuns reported before it had a canonical reader. Some of
// those prefixes end in "}}".
func TestTornCellLinesKeepErrors(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	full := rec("a/x=1", "d1", 11)
	full.Err = "boom"
	writePartial(t, st, "src", "0/1", full, Record{Key: "b", Digest: "d2"},
		Record{Key: "c/<&>", Digest: "d3", Seed: math.MaxUint64, Values: map[string]float64{"neg0": math.Copysign(0, -1), "tiny": 1e-7}})
	data, err := os.ReadFile(st.runPath("src"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")[1:]
	if len(lines) != 3 || !strings.Contains(lines[0], `"labels"`) || !strings.Contains(lines[0], `"err"`) {
		t.Fatalf("unexpected source lines %q", lines)
	}
	braces := 0
	for _, l := range lines {
		for n := 0; n < len(l); n++ {
			var old struct {
				Meta *struct{} `json:"meta"`
				Cell *struct {
					Key    string `json:"key"`
					Digest string `json:"digest"`
				} `json:"cell"`
			}
			jerr := json.Unmarshal([]byte(l[:n]), &old)
			if jerr == nil {
				t.Fatalf("prefix %q decodes", l[:n])
			}
			partLines(t, st, "torn", l[:n])
			want := "resultstore: merge: resultstore: torn line 2: " + jerr.Error()
			if _, err := st.MergeRuns(Meta{Run: "merged"}, []string{"torn"}, nil); err == nil || err.Error() != want {
				t.Fatalf("prefix %q: %v, want %q", l[:n], err, want)
			}
			if strings.HasSuffix(l[:n], "}}") {
				braces++
			}
		}
	}
	if braces == 0 {
		t.Error("no prefix ended in }}")
	}
}

// TestForeignCellLinesMerge: cell lines encoding/json wrote in another
// layout — fields reordered, an extra key, whitespace, escapes — merge
// through the fallback, copied byte for byte under their key and digest.
func TestForeignCellLinesMerge(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	foreign := []string{
		`{"cell":{"digest":"d1","key":"a","seed":1,"values":{"v":1.5}}}`,
		`{"cell":{"key":"b","digest":"d2","seed":2,"extra":[1,2]}}`,
		`{"cell": {"key":"c","digest":"d3","seed":3}}`,
		`{"cell":{"key":"d<","digest":"d4","seed":4}}`,
		`{"cell":{"key":"e\u0026","digest":"d5","seed":5}}`,
	}
	partLines(t, st, "f-s0", foreign...)
	if n, err := st.MergeRuns(Meta{Run: "f"}, []string{"f-s0"}, []string{"a", "b", "c", "d<", "e&"}); err != nil || n != 5 {
		t.Fatalf("merge: n=%d err=%v", n, err)
	}
	data, err := os.ReadFile(st.runPath("f"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")[1:]; !reflect.DeepEqual(got, foreign) {
		t.Errorf("merged lines\n%q\nwant\n%q", got, foreign)
	}
	for key, digest := range map[string]string{"a": "d1", "b": "d2", "c": "d3", "d<": "d4", "e&": "d5"} {
		if e := st.Index()[Hash(key)]; e.Key != key || e.Digest != digest || e.Run != "f" {
			t.Errorf("index for %s: %+v", key, e)
		}
	}
}
