package shard

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/netfpga/sweep"
)

// plainASCII reports whether json.Marshal writes s verbatim between
// quotes and s is ASCII: the strings the canonical writer must not
// decline.
func plainASCII(s string) bool {
	b, _ := json.Marshal(s)
	return string(b) == `"`+s+`"` && strings.IndexFunc(s, func(r rune) bool { return r >= 0x80 }) < 0
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// floatBits maps a float map to its values' bits, so -0 and 0 differ;
// nil stays nil and empty stays empty.
func floatBits(m map[string]float64) map[string]uint64 {
	if m == nil {
		return nil
	}
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = math.Float64bits(v)
	}
	return out
}

// sameFrame reports whether two decoded frames are equal, float bits
// included.
func sameFrame(a, b SessionFrame) bool {
	if a.Cell != nil && b.Cell != nil {
		x, y := *a.Cell, *b.Cell
		if !reflect.DeepEqual(floatBits(x.Values), floatBits(y.Values)) {
			return false
		}
		x.Values, y.Values = nil, nil
		a.Cell, b.Cell = &x, &y
	}
	return reflect.DeepEqual(a, b)
}

// FuzzCellFrame: a Cell frame from the canonical writer is exactly
// json.Marshal's bytes, or the writer declines, and it never declines a
// record of plain ASCII strings and finite values. Any payload the
// canonical reader accepts decodes exactly as json.Unmarshal decodes it,
// float bits included, and the writer's bytes always read back.
func FuzzCellFrame(f *testing.F) {
	raws := []string{
		`{"cell":{"key":"m/p=reference_switch/wl=imix","digest":"d","seed":7,"values":{"a":-0,"b":1e+21,"c":1e-7},"labels":{"l":"v"},"sim_ps":40000000,"events":1234,"err":"boom"}}`,
		`{"open":{"config":"c","seed":3,"workers":2,"clock_batch":1,"frame_burst":64,"segment":true,"segment_budget":512}}`,
		`{"assign":{"keys":["a","b"],"migrate_after":5000}}`,
		`{"done":{"cells":2,"util":{"workers":1,"jobs":2,"segmented":true,"wall_ms":10,"busy_ms":9,"segments":40,"steals":3,"efficiency":0.9}}}`,
		`{"cell":{"key":"k","digest":"d","seed":1}} `,
		`{"cell":{"key":"k","digest":"d","seed":1e3}}`,
		`{"cell":{"key":"k","digest":"d","seed":-0,"sim_ps":-0}}`,
		`{"cell":{"key":"k","digest":"d","seed":18446744073709551616}}`,
		`{"cell":{"key":"k","digest":"d","seed":1,"values":{"x":1e400}}}`,
		`{"cell":{"key":"k","digest":"d","seed":1,"values":{"x":1,"x":2}}}`,
		`{"cell":{"key":"k","digest":"d","seed":1,"values":{},"labels":{}}}`,
		`{"cell":{"key":"k","digest":"d","digest":"e","seed":1}}`,
		`{"cell":{"key":"<","digest":"d","seed":1}}`,
		`{"cell":{"key":"k","digest":"d","seed":01}}`,
		`{"cell":null}`,
		`{"Cell":{"key":"k","digest":"d","seed":1}}`,
		`{"cell":{"key":"k","seed":1,"sim_ps":2,"digest":"d"}}`,
		"{\"cell\":{\"key\":\"\xff\",\"digest\":\"\t\",\"seed\":1}}",
	}
	type seed struct {
		key            string
		seed           uint64
		k1             string
		v1             float64
		k2             string
		v2             float64
		lk, lv         string
		simPS          int64
		events         uint64
		errStr, digest string
		shape          uint8
	}
	seeds := []seed{
		{"m/p=reference_switch", 7, "frames", 12, "gbps", 9.5, "board", "sume", 40000000, 1234, "", "d", 0},
		{"T<1>/a&b", 1, "x", math.Copysign(0, -1), "y", 1e21, "l", "<b>", 1, 1, "", "d", 0},
		{"k", 1, "x", 1e-7, "y", 5e-324, "l", "v", 0, 0, "e", "d", 0},
		{"line\u2028sep", 1, "x", 1e-9, "y", 1e21, "l", "\xff", 0, 0, "e", "d", 0},
		{"k", math.MaxUint64, "x", math.MaxFloat64, "y", -math.MaxFloat64, "", "", math.MinInt64, math.MaxUint64, "", "", 3},
		{"k", 1, "nan", math.NaN(), "inf", math.Inf(1), "l", "v", 0, 0, "", "d", 0},
		{"k", 1, "x", math.Inf(-1), "y", 1e20, "l", "v", 0, 0, "fleet: job \"x\" panicked", "d", 1},
	}
	for i, s := range seeds {
		f.Add([]byte(raws[i%len(raws)]), s.key, s.seed, s.k1, s.v1, s.k2, s.v2, s.lk, s.lv, s.simPS, s.events, s.errStr, s.digest, s.shape)
	}
	for _, n := range []string{"1.", ".5", "+1", "01", "-01", "-", "1e", "0.e5", "1E+05", "-0", "0e0", "1.5e-7"} {
		raws = append(raws, `{"cell":{"key":"k","digest":"d","seed":1,"values":{"x":`+n+`}}}`,
			`{"cell":{"key":"k","digest":"d","seed":1,"sim_ps":`+n+`}}`)
	}
	for _, raw := range raws[len(seeds):] {
		f.Add([]byte(raw), "k", uint64(1), "x", 1.0, "y", 2.0, "l", "v", int64(0), uint64(0), "", "d", uint8(0))
	}
	f.Fuzz(func(t *testing.T, raw []byte, key string, seed uint64, k1 string, v1 float64, k2 string, v2 float64,
		lk, lv string, simPS int64, events uint64, errStr, digest string, shape uint8) {
		rec := sweep.CellRecord{Key: key, Seed: seed, SimPS: simPS, Events: events, Err: errStr, Digest: digest}
		if shape&1 == 0 {
			rec.Values = map[string]float64{k1: v1, k2: v2}
		}
		if shape&2 == 0 {
			rec.Labels = map[string]string{lk: lv}
		}
		fr := SessionFrame{Cell: &rec}
		got, ok := appendHot(nil, fr)
		want, err := json.Marshal(fr)
		plain := plainASCII(key) && plainASCII(errStr) && plainASCII(digest) &&
			(rec.Values == nil || plainASCII(k1) && plainASCII(k2) && finite(v1) && finite(v2)) &&
			(rec.Labels == nil || plainASCII(lk) && plainASCII(lv))
		switch {
		case ok && (err != nil || string(got) != string(want)):
			t.Fatalf("writer wrote\n%s\njson.Marshal\n%s (%v)", got, want, err)
		case !ok && plain:
			t.Fatalf("writer declined a plain record: %+v", rec)
		case ok:
			var back SessionFrame
			if !readHot(got, &back, nil) || !sameFrame(back, fr) {
				t.Fatalf("writer's bytes do not read back: %s", got)
			}
		}
		var hot, ref SessionFrame
		if readHot(raw, &hot, nil) {
			if err := json.Unmarshal(raw, &ref); err != nil || !sameFrame(hot, ref) {
				t.Fatalf("reader accepted %q as %+v; json.Unmarshal gives %+v, %v", raw, hot.Cell, ref.Cell, err)
			}
		}
	})
}

// FuzzAssignFrame: the same two checks for the Assign command.
func FuzzAssignFrame(f *testing.F) {
	for _, s := range []struct {
		raw     string
		a, b, c string
		n       uint8
	}{
		{`{"assign":{"keys":["a","b"]}}`, "m/p=reference_switch/wl=imix", "b", "c", 3},
		{`{"assign":{"keys":["a","b"],"migrate_after":5000}}`, "<>&", "x", "y", 2},
		{`{"open":{"config":"c","seed":3,"workers":2,"clock_batch":1,"frame_burst":64,"segment":true,"segment_budget":512}}`, "\u2028", "\xff", "", 3},
		{`{"assign":{"keys":[]}}`, "a", "b", "c", 0},
		{`{"assign":{"keys":null}}`, "a", "b", "c", 4},
		{`{"assign":{"keys":["a"]},"close":true}`, "a", "", "", 1},
		{`{"assign":{"keys":["a",]}}`, "a", "b", "c", 1},
		{`{"assign":{"keys":["A"]}}`, "a", "b", "c", 1},
		{`{"steal":true}`, "a", "b", "c", 1},
	} {
		f.Add([]byte(s.raw), s.a, s.b, s.c, s.n)
	}
	f.Fuzz(func(t *testing.T, raw []byte, a, b, c string, n uint8) {
		var keys []string
		if n%5 < 4 {
			keys = []string{a, b, c}[:n%5]
		}
		cmd := Command{Assign: &Assign{Keys: keys}}
		got, ok := appendHot(nil, cmd)
		want, err := json.Marshal(cmd)
		plain := keys != nil
		for _, k := range keys {
			plain = plain && plainASCII(k)
		}
		switch {
		case ok && (err != nil || string(got) != string(want)):
			t.Fatalf("writer wrote\n%s\njson.Marshal\n%s (%v)", got, want, err)
		case !ok && plain:
			t.Fatalf("writer declined plain keys %q", keys)
		case ok:
			var back Command
			if !readHot(got, &back, nil) || !reflect.DeepEqual(back, cmd) {
				t.Fatalf("writer's bytes do not read back: %s", got)
			}
		}
		var hot, ref Command
		if readHot(raw, &hot, nil) {
			if err := json.Unmarshal(raw, &ref); err != nil || !reflect.DeepEqual(hot, ref) {
				t.Fatalf("reader accepted %q as %+v; json.Unmarshal gives %+v, %v", raw, hot.Assign, ref.Assign, err)
			}
		}
	})
}

// nanGroup is the test matrix with a measure that also reports a NaN.
func nanGroup() sweep.Group {
	g := testGroup()
	g.Measure = func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		o, err := sweep.GenericMeasure(c, cell)
		o.Set("x", math.NaN())
		return o, err
	}
	return g
}

// TestNonFiniteValueIsACellError: a measure reporting NaN seals as a
// cell error naming the value, with the same digest in-process and over
// a pipe fleet, which finishes instead of waiting on a frame no encoder
// can write.
func TestNonFiniteValueIsACellError(t *testing.T) {
	groups := []sweep.Group{nanGroup()}
	want, err := sweep.RunGroups(context.Background(), &sweep.Runner{Workers: 2}, groups, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range want.Cells {
		if cr.Values != nil || !strings.Contains(cr.Err, `value "x" is NaN`) {
			t.Fatalf("cell %s: values %v, err %q", cr.Cell.Key, cr.Values, cr.Err)
		}
	}
	plan, err := sweep.PlanGroups(groups, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	planFor := func(req Request) (*sweep.Plan, error) { return sweep.PlanGroups(groups, req.Filter, req.Seed) }
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f := &Fleet{
		Req:       Request{Workers: 2},
		Endpoints: []*Endpoint{PipeWorker(ctx, "pipe:0", planFor), PipeWorker(ctx, "pipe:1", planFor)},
	}
	got, _, err := f.Run(ctx, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, want, got)
}

// TestUnsendableCellReportedAsErr: a Cell frame the worker cannot send
// is followed by an Err frame naming the cell, not swallowed.
func TestUnsendableCellReportedAsErr(t *testing.T) {
	plan, err := sweep.PlanGroups([]sweep.Group{testGroup()}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	key := plan.Cells[0].Key
	var sent []SessionFrame
	send := func(fr SessionFrame) error {
		sent = append(sent, fr)
		if fr.Cell != nil {
			return errors.New("shard: frame of 67108865 bytes exceeds limit")
		}
		return nil
	}
	cr, err := plan.RunCell(context.Background(), key, 0, 0, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cells atomic.Int64
	sendCell(context.Background(), cr, send, &cells)
	if len(sent) != 2 || sent[1].Err != "shard worker: cell "+key+": shard: frame of 67108865 bytes exceeds limit" {
		t.Fatalf("frames sent: %+v", sent)
	}
}
