// Package canonjson writes and reads the per-cell record,
// sweep.CellRecord, in exactly the bytes encoding/json writes for it,
// without reflection. The fleet's Cell frames and the result store's
// cell lines carry it in one field order, its struct's: key, digest,
// seed, values, labels, sim_ps, events, err. The writer declines
// a string encoding/json would escape and a non-finite float; the reader
// declines all but that canonical layout: known keys in struct order, no
// whitespace, no escapes, nothing after the end. Callers fall back to
// encoding/json on a decline, so old peers, torn lines and error texts
// behave as before.
package canonjson

import (
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/netfpga/sweep"
)

// AppendCell appends r as json.Marshal writes it, with omitempty on
// values, labels, sim_ps, events and err. It reports false when the
// bytes are not json.Marshal's.
func AppendCell(b []byte, r *sweep.CellRecord) ([]byte, bool) {
	b, ok := appendStr(append(b, `{"key":`...), r.Key, true)
	b, ok = appendStr(append(b, `,"digest":`...), r.Digest, ok)
	b = strconv.AppendUint(append(b, `,"seed":`...), r.Seed, 10)
	b, ok = appendMap(b, `,"values":`, r.Values, ok, appendFloat)
	b, ok = appendMap(b, `,"labels":`, r.Labels, ok, appendStr)
	if r.SimPS != 0 {
		b = strconv.AppendInt(append(b, `,"sim_ps":`...), r.SimPS, 10)
	}
	if r.Events != 0 {
		b = strconv.AppendUint(append(b, `,"events":`...), r.Events, 10)
	}
	if r.Err != "" {
		b, ok = appendStr(append(b, `,"err":`...), r.Err, ok)
	}
	return append(b, '}'), ok
}

// AppendStrings appends ss as json.Marshal writes a []string. It reports
// false for a nil slice, which encoding/json writes as null.
func AppendStrings(b []byte, ss []string) ([]byte, bool) {
	ok := ss != nil
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b, ok = appendStr(b, s, ok)
	}
	return append(b, ']'), ok
}

// ParseCell reads s, which must be exactly prefix, one cell object and
// suffix, into the zero record c, as json.Unmarshal would. It reports
// false for anything else. The map keys of c's Values and Labels, and
// the label values, come from tab, so a kept Values or Labels does not
// keep s alive; c's Key, Digest and Err share s's memory.
func ParseCell(s, prefix, suffix string, c *sweep.CellRecord, tab *Table) bool {
	r := reader{s: s, tab: tab}
	r.want(prefix + `{"key":`)
	c.Key = r.str()
	if r.lit(`,"digest":`) {
		c.Digest = r.str()
	}
	r.want(`,"seed":`)
	c.Seed = num(&r, parseUint)
	if r.lit(`,"values":{`) {
		c.Values = readMap(&r, func() float64 { return num(&r, parseFloat) })
	}
	if r.lit(`,"labels":{`) {
		c.Labels = readMap(&r, func() string { return r.tab.intern(r.str()) })
	}
	if r.lit(`,"sim_ps":`) {
		c.SimPS = num(&r, parseInt)
	}
	if r.lit(`,"events":`) {
		c.Events = num(&r, parseUint)
	}
	if r.lit(`,"err":`) {
		c.Err = r.str()
	}
	return r.end("}" + suffix)
}

// ParseStrings reads s, which must be exactly prefix, one array of
// strings and suffix, as json.Unmarshal would. It reports false for
// anything else.
func ParseStrings(s, prefix, suffix string) ([]string, bool) {
	r := reader{s: s}
	r.want(prefix + "[")
	ss := []string{}
	for !r.bad && !r.lit("]") {
		if len(ss) > 0 {
			r.want(",")
		}
		ss = append(ss, r.str())
	}
	return ss, r.end(suffix)
}

// plain marks the bytes encoding/json writes unescaped in a string:
// printable ASCII and DEL, less " \ < > and &.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// appendStr appends s quoted; ok turns false if s holds a byte that is
// not plain.
func appendStr(b []byte, s string, ok bool) ([]byte, bool) {
	for i := 0; ok && i < len(s); i++ {
		ok = plain[s[i]]
	}
	return append(append(append(b, '"'), s...), '"'), ok
}

// appendFloat is encoding/json's float64 encoder; ok turns false for a
// non-finite f.
func appendFloat(b []byte, f float64, ok bool) ([]byte, bool) {
	fmt := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmt = 'e'
	}
	b = strconv.AppendFloat(b, f, fmt, -1, 64)
	if n := len(b); fmt == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 becomes e-7, as encoding/json writes it
		b = b[:n-1]
	}
	return b, ok && !math.IsNaN(f) && !math.IsInf(f, 0)
}

// appendMap appends name and m with its keys sorted, unless m is empty:
// how json.Marshal writes a map under omitempty.
func appendMap[V any](b []byte, name string, m map[string]V, ok bool,
	val func([]byte, V, bool) ([]byte, bool)) ([]byte, bool) {
	if len(m) == 0 {
		return b, ok
	}
	keys := slices.AppendSeq(make([]string, 0, 16), maps.Keys(m))
	slices.Sort(keys)
	sep := byte('{')
	for _, k := range keys {
		b, ok = appendStr(append(append(b, name...), sep), k, ok)
		b, ok = val(append(b, ':'), m[k], ok)
		name, sep = "", ','
	}
	return append(b, '}'), ok
}

// Table interns the map keys and label values ParseCell reads: it
// hands out one copy of each distinct string, made the first time it is
// read. A plan's records share a few dozen, so a reader keeps one Table
// for its whole stream — a session's frames, a store scan's lines — and
// reads them without allocating. Past maxInterned strings it copies the
// rest without keeping them. A nil Table copies every string. Not safe
// for concurrent use.
type Table struct{ m map[string]string }

// maxInterned bounds a Table: labels are free text, and a stream of
// distinct ones must not grow it without end.
const maxInterned = 1024

func (t *Table) intern(s string) string {
	if t == nil {
		return strings.Clone(s)
	}
	if v, ok := t.m[s]; ok {
		return v
	}
	v := strings.Clone(s)
	if len(t.m) < maxInterned {
		if t.m == nil {
			t.m = make(map[string]string)
		}
		t.m[v] = v
	}
	return v
}

// reader scans s from i; the first mismatch sets bad, which fails the
// whole read. Map keys come from tab.
type reader struct {
	s   string
	i   int
	bad bool
	tab *Table
}

// lit consumes p if s continues with it.
func (r *reader) lit(p string) bool {
	ok := !r.bad && strings.HasPrefix(r.s[r.i:], p)
	if ok {
		r.i += len(p)
	}
	return ok
}

func (r *reader) want(p string) { r.bad = !r.lit(p) }

// end reports whether s ends with suffix where the read stands.
func (r *reader) end(suffix string) bool { return r.lit(suffix) && r.i == len(r.s) }

// str reads a string of plain bytes.
func (r *reader) str() string {
	r.want(`"`)
	j := r.i
	for j < len(r.s) && plain[r.s[j]] {
		j++
	}
	s := r.s[r.i:j]
	r.i = j
	r.want(`"`)
	return s
}

// readMap reads an object's members through its closing brace, the
// opening one already read. A repeated key keeps its last value, as with
// encoding/json.
func readMap[V any](r *reader, val func() V) map[string]V {
	m := map[string]V{}
	for !r.bad && !r.lit("}") {
		if len(m) > 0 {
			r.want(",")
		}
		k := r.tab.intern(r.str())
		r.want(":")
		m[k] = val()
	}
	return m
}

// num reads a number and converts it with conv, as encoding/json does.
// conv accepts the JSON grammar and more; num declines the more: a
// leading + or ., a leading zero before a digit, a . before no digit.
func num[T any](r *reader, conv func(string) (T, error)) T {
	j := r.i
	for j < len(r.s) && strings.IndexByte("+-.0123456789Ee", r.s[j]) >= 0 {
		j++
	}
	n := r.s[r.i:j]
	t := strings.TrimPrefix(n, "-")
	dot := strings.IndexByte(t, '.')
	v, err := conv(n)
	r.i, r.bad = j, r.bad || err != nil || !digit(t, 0) || t[0] == '0' && digit(t, 1) || dot >= 0 && !digit(t, dot+1)
	return v
}

func digit(s string, i int) bool { return i < len(s) && '0' <= s[i] && s[i] <= '9' }

func parseUint(n string) (uint64, error)   { return strconv.ParseUint(n, 10, 64) }
func parseInt(n string) (int64, error)     { return strconv.ParseInt(n, 10, 64) }
func parseFloat(n string) (float64, error) { return strconv.ParseFloat(n, 64) }
