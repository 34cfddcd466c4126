package canonjson

import (
	"testing"
	"unsafe"

	"repro/netfpga/sweep"
)

// aliases reports whether s's bytes lie inside buf's.
func aliases(s, buf string) bool {
	if len(s) == 0 || len(buf) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(buf)))
	return p >= lo && p < lo+uintptr(len(buf))
}

// TestParsedKeysDoNotAliasInput: the map keys and labels of a parsed
// record are copies, not slices of the line, so a kept record does not
// keep the line alive; with a table, every record of a stream shares one
// copy of each.
func TestParsedKeysDoNotAliasInput(t *testing.T) {
	rec := sweep.CellRecord{Key: "a/b=1", Digest: "d1", Seed: 7,
		Values: map[string]float64{"rx_frames": 3, "sent": 4},
		Labels: map[string]string{"verdict": "PASS"}}
	line, ok := AppendCell(nil, &rec)
	if !ok {
		t.Fatal("AppendCell declined a plain record")
	}
	var tab Table
	var first sweep.CellRecord
	for i, tb := range []*Table{&tab, &tab, nil} {
		s := string(line) // a fresh buffer per read, as a stream's frames are
		var c sweep.CellRecord
		if !ParseCell(s, "", "", &c, tb) {
			t.Fatalf("read %d: ParseCell declined %s", i, s)
		}
		if c.Values["sent"] != 4 || c.Labels["verdict"] != "PASS" {
			t.Fatalf("read %d: decoded %+v", i, c)
		}
		for k := range c.Values {
			if aliases(k, s) {
				t.Errorf("read %d: value key %q aliases the input", i, k)
			}
		}
		for k, v := range c.Labels {
			if aliases(k, s) || aliases(v, s) {
				t.Errorf("read %d: label %q=%q aliases the input", i, k, v)
			}
		}
		switch i {
		case 0:
			first = c
		case 1:
			for k := range c.Labels {
				if unsafe.StringData(c.Labels[k]) != unsafe.StringData(first.Labels[k]) {
					t.Errorf("label %q was copied again, not interned", k)
				}
			}
		}
	}
}
