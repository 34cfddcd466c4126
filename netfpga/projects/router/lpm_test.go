package router

import (
	"testing"
	"testing/quick"

	"repro/netfpga/pkt"
)

func TestTrieBasicLPM(t *testing.T) {
	fib := NewTrie()
	fib.Insert(Route{Prefix: pkt.MustPrefix("10.0.0.0/8"), Port: 1})
	fib.Insert(Route{Prefix: pkt.MustPrefix("10.1.0.0/16"), Port: 2})
	fib.Insert(Route{Prefix: pkt.MustPrefix("10.1.2.0/24"), Port: 3})
	fib.Insert(Route{Prefix: pkt.MustPrefix("0.0.0.0/0"), Port: 0})

	cases := map[string]uint8{
		"10.2.3.4":  1, // /8
		"10.1.9.9":  2, // /16
		"10.1.2.3":  3, // /24
		"192.0.2.1": 0, // default
	}
	for ip, want := range cases {
		r, ok := fib.Lookup(pkt.MustIP4(ip))
		if !ok || r.Port != want {
			t.Errorf("lookup %s -> port %d (ok %v), want %d", ip, r.Port, ok, want)
		}
	}
	if fib.Len() != 4 {
		t.Fatalf("Len = %d", fib.Len())
	}
}

func TestTrieNoDefaultMiss(t *testing.T) {
	fib := NewTrie()
	fib.Insert(Route{Prefix: pkt.MustPrefix("10.0.0.0/8"), Port: 1})
	if _, ok := fib.Lookup(pkt.MustIP4("11.0.0.1")); ok {
		t.Fatal("miss returned a route")
	}
}

func TestTrieReplaceAndRemove(t *testing.T) {
	fib := NewTrie()
	pfx := pkt.MustPrefix("172.16.0.0/12")
	fib.Insert(Route{Prefix: pfx, Port: 1})
	fib.Insert(Route{Prefix: pfx, Port: 2}) // replace
	if fib.Len() != 1 {
		t.Fatalf("Len = %d after replace", fib.Len())
	}
	if r, _ := fib.Lookup(pkt.MustIP4("172.20.0.1")); r.Port != 2 {
		t.Fatal("replace did not take")
	}
	if !fib.Remove(pfx) {
		t.Fatal("remove failed")
	}
	if fib.Remove(pfx) {
		t.Fatal("double remove succeeded")
	}
	if _, ok := fib.Lookup(pkt.MustIP4("172.20.0.1")); ok {
		t.Fatal("removed route still matches")
	}
}

func TestTrieHostRoute(t *testing.T) {
	fib := NewTrie()
	fib.Insert(Route{Prefix: pkt.MustPrefix("10.0.0.0/8"), Port: 1})
	fib.Insert(Route{Prefix: pkt.MustPrefix("10.0.0.5/32"), Port: 7})
	if r, _ := fib.Lookup(pkt.MustIP4("10.0.0.5")); r.Port != 7 {
		t.Fatal("/32 not preferred")
	}
	if r, _ := fib.Lookup(pkt.MustIP4("10.0.0.6")); r.Port != 1 {
		t.Fatal("/32 overmatched")
	}
}

func TestTrieWalkVisitsAll(t *testing.T) {
	fib := NewTrie()
	prefixes := []string{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/24"}
	for i, s := range prefixes {
		fib.Insert(Route{Prefix: pkt.MustPrefix(s), Port: uint8(i)})
	}
	seen := map[string]bool{}
	fib.Walk(func(r Route) { seen[r.Prefix.String()] = true })
	if len(seen) != len(prefixes) {
		t.Fatalf("walk saw %d routes, want %d", len(seen), len(prefixes))
	}
}

// Property: the trie agrees with the linear-scan reference under random
// insert/remove/lookup workloads.
func TestTrieMatchesLinearProperty(t *testing.T) {
	type op struct {
		Addr   uint32
		Bits   uint8
		Port   uint8
		Remove bool
	}
	f := func(ops []op, probes []uint32) bool {
		trie := NewTrie()
		ref := &LinearFIB{}
		for _, o := range ops {
			pfx := pkt.Prefix{Addr: pkt.IP4FromUint32(o.Addr), Bits: o.Bits % 33}
			// Canonicalise: the address must be masked for equality.
			pfx.Addr = pkt.IP4FromUint32(o.Addr & pfx.Mask())
			if o.Remove {
				a := trie.Remove(pfx)
				b := ref.Remove(pfx)
				if a != b {
					return false
				}
			} else {
				r := Route{Prefix: pfx, Port: o.Port, NextHop: pkt.IP4FromUint32(o.Addr ^ 0xFFFF)}
				trie.Insert(r)
				ref.Insert(r)
			}
		}
		for _, p := range probes {
			ip := pkt.IP4FromUint32(p)
			tr, tok := trie.Lookup(ip)
			lr, lok := ref.Lookup(ip)
			if tok != lok {
				return false
			}
			if tok && (tr.Prefix != lr.Prefix || tr.Port != lr.Port) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTrieScale(t *testing.T) {
	fib := NewTrie()
	// 64k /24s under 10.0.0.0/8.
	for i := 0; i < 65536; i++ {
		fib.Insert(Route{
			Prefix: pkt.Prefix{Addr: pkt.IP4{10, byte(i >> 8), byte(i), 0}, Bits: 24},
			Port:   uint8(i % 4),
		})
	}
	if fib.Len() != 65536 {
		t.Fatalf("Len = %d", fib.Len())
	}
	for i := 0; i < 65536; i += 997 {
		ip := pkt.IP4{10, byte(i >> 8), byte(i), 42}
		r, ok := fib.Lookup(ip)
		if !ok || r.Port != uint8(i%4) {
			t.Fatalf("lookup %v failed", ip)
		}
	}
}

// TestTrieClearKeepsNodes: a FIB cleared and reloaded to the same routes
// allocates nothing and answers as the first load did; a removal frees
// nodes that the next insert takes back.
func TestTrieClearKeepsNodes(t *testing.T) {
	fib := NewTrie()
	load := func() {
		fib.Clear()
		for i := 0; i < 4096; i++ {
			fib.Insert(Route{Prefix: pkt.Prefix{Addr: pkt.IP4{172, 16, byte(i >> 8), byte(i)}, Bits: 32}, Port: uint8(i % 4)})
		}
	}
	load()
	if allocs := testing.AllocsPerRun(5, load); allocs != 0 {
		t.Fatalf("a reload allocates %.0f times", allocs)
	}
	if r, ok := fib.Lookup(pkt.IP4{172, 16, 7, 9}); !ok || r.Port != uint8((7<<8|9)%4) || fib.Len() != 4096 {
		t.Fatalf("after a reload: %v %v, %d routes", r, ok, fib.Len())
	}
	used := fib.used
	p := pkt.Prefix{Addr: pkt.IP4{172, 16, 15, 255}, Bits: 32}
	fib.Remove(p)
	fib.Insert(Route{Prefix: p})
	if fib.used != used {
		t.Fatalf("remove and insert grew the trie from %d to %d nodes", used, fib.used)
	}
}

// TestTrieOrderedLoadMatchesLinear: a FIB loaded in address order, as
// T5 loads one, with removals and re-inserts between the loads, answers
// as the linear reference does (inserts resume from the last one's
// path; a removal must make the next insert walk from the root).
func TestTrieOrderedLoadMatchesLinear(t *testing.T) {
	trie, ref := NewTrie(), &LinearFIB{}
	add := func(r Route) { trie.Insert(r); ref.Insert(r) }
	for i := 0; i < 2048; i++ {
		add(Route{Prefix: pkt.Prefix{Addr: pkt.IP4{172, 16, byte(i >> 8), byte(i)}, Bits: 32}, Port: uint8(i % 4)})
		if i%7 == 6 {
			p := pkt.Prefix{Addr: pkt.IP4{172, 16, byte((i - 3) >> 8), byte(i - 3)}, Bits: 32}
			if trie.Remove(p) != ref.Remove(p) {
				t.Fatalf("remove %v disagrees", p)
			}
		}
		if i%11 == 10 { // the route just inserted: its path is pruned
			p := pkt.Prefix{Addr: pkt.IP4{172, 16, byte(i >> 8), byte(i)}, Bits: 32}
			if trie.Remove(p) != ref.Remove(p) {
				t.Fatalf("remove %v disagrees", p)
			}
		}
		if i%64 == 0 {
			add(Route{Prefix: pkt.Prefix{Addr: pkt.IP4{172, 16, byte(i >> 8), 0}, Bits: 24}, Port: 3})
		}
	}
	for i := 0; i < 2048+256; i++ {
		ip := pkt.IP4{172, 16, byte(i >> 8), byte(i)}
		tr, tok := trie.Lookup(ip)
		lr, lok := ref.Lookup(ip)
		if tok != lok || tr != lr {
			t.Fatalf("lookup %v: trie %v %v, reference %v %v", ip, tr, tok, lr, lok)
		}
	}
}

// LinearFIB is a reference implementation: a flat route list scanned for
// the longest match. It exists to property-test the trie against.
type LinearFIB struct {
	routes []Route
}

// Insert adds or replaces a route.
func (l *LinearFIB) Insert(r Route) {
	for i := range l.routes {
		if l.routes[i].Prefix == r.Prefix {
			l.routes[i] = r
			return
		}
	}
	l.routes = append(l.routes, r)
}

// Remove deletes a route by prefix.
func (l *LinearFIB) Remove(prefix pkt.Prefix) bool {
	for i := range l.routes {
		if l.routes[i].Prefix == prefix {
			l.routes = append(l.routes[:i], l.routes[i+1:]...)
			return true
		}
	}
	return false
}

// Lookup scans for the longest matching prefix.
func (l *LinearFIB) Lookup(ip pkt.IP4) (Route, bool) {
	var best Route
	found := false
	for _, r := range l.routes {
		if r.Prefix.Contains(ip) {
			if !found || r.Prefix.Bits > best.Prefix.Bits {
				best = r
				found = true
			}
		}
	}
	return best, found
}
