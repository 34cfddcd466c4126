package router

import "repro/netfpga/pkt"

// Route is one FIB entry.
type Route struct {
	Prefix pkt.Prefix
	// NextHop is the gateway address; the zero IP means the prefix is
	// directly connected (the next hop is the packet's destination).
	NextHop pkt.IP4
	// Port is the egress interface.
	Port uint8
}

// Trie is a binary (unibit) longest-prefix-match trie, the structure the
// hardware FIB models. Lookups walk at most 32 nodes; inserts and
// removals are in-place.
type Trie struct {
	root *trieNode
	n    int
}

type trieNode struct {
	child [2]*trieNode
	route *Route
}

// NewTrie returns an empty FIB.
func NewTrie() *Trie { return &Trie{root: &trieNode{}} }

// Len returns the number of routes.
func (t *Trie) Len() int { return t.n }

// Clear removes every route.
func (t *Trie) Clear() { t.root, t.n = &trieNode{}, 0 }

// bitAt returns bit i (0 = most significant) of a.
func bitAt(a uint32, i uint8) int { return int(a>>(31-i)) & 1 }

// Insert adds or replaces the route for r.Prefix.
func (t *Trie) Insert(r Route) {
	addr := r.Prefix.Addr.Uint32() & r.Prefix.Mask()
	n := t.root
	for i := uint8(0); i < r.Prefix.Bits; i++ {
		b := bitAt(addr, i)
		if n.child[b] == nil {
			n.child[b] = &trieNode{}
		}
		n = n.child[b]
	}
	if n.route == nil {
		t.n++
	}
	rr := r
	n.route = &rr
}

// Remove deletes the route for prefix, reporting whether it existed.
// Emptied branches are pruned.
func (t *Trie) Remove(prefix pkt.Prefix) bool {
	addr := prefix.Addr.Uint32() & prefix.Mask()
	path := make([]*trieNode, 0, 33)
	n := t.root
	path = append(path, n)
	for i := uint8(0); i < prefix.Bits; i++ {
		n = n.child[bitAt(addr, i)]
		if n == nil {
			return false
		}
		path = append(path, n)
	}
	if n.route == nil {
		return false
	}
	n.route = nil
	t.n--
	// Prune childless, routeless nodes bottom-up.
	for i := len(path) - 1; i > 0; i-- {
		node := path[i]
		if node.route != nil || node.child[0] != nil || node.child[1] != nil {
			break
		}
		parent := path[i-1]
		b := bitAt(addr, uint8(i-1))
		parent.child[b] = nil
	}
	return true
}

// Lookup returns the longest-prefix-match route for ip.
func (t *Trie) Lookup(ip pkt.IP4) (Route, bool) {
	addr := ip.Uint32()
	var best *Route
	n := t.root
	for i := uint8(0); ; i++ {
		if n.route != nil {
			best = n.route
		}
		if i == 32 {
			break
		}
		n = n.child[bitAt(addr, i)]
		if n == nil {
			break
		}
	}
	if best == nil {
		return Route{}, false
	}
	return *best, true
}

// Walk visits every route in prefix order (shorter prefixes first among
// ancestors; child order 0 then 1).
func (t *Trie) Walk(fn func(Route)) {
	var rec func(*trieNode)
	rec = func(n *trieNode) {
		if n == nil {
			return
		}
		if n.route != nil {
			fn(*n.route)
		}
		rec(n.child[0])
		rec(n.child[1])
	}
	rec(t.root)
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
