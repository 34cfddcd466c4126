package router

import (
	"math/bits"

	"repro/netfpga/pkt"
)

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
// removals are in-place. The nodes are linked by index with their routes
// inline, in fixed-size blocks that hold no pointers: a FIB costs the
// garbage collector nothing to trace, grows a block at a time without
// copying what it holds, and Clear keeps its blocks, so a FIB reloaded
// to the same size allocates nothing.
type Trie struct {
	blocks []*[trieBlock]trieNode
	used   uint32   // nodes handed out; node 0 is the root
	free   []uint32 // pruned nodes, reused first
	n      int
	// path is the last insert's walk, path[i] its node at depth i, and
	// last and lastBits its prefix: an insert starts where its path
	// parts from the last one, so a FIB loaded in address order does
	// not walk from the root for every route. Remove and Clear forget it.
	path     [33]uint32
	last     uint32
	lastBits uint8
}

// trieBlock is the number of nodes per block: 20 KB.
const trieBlock = 1024

// trieNode is one trie node. A child index of 0 means none: the root is
// no node's child.
type trieNode struct {
	child [2]uint32
	route Route
	has   bool // route is set
}

// NewTrie returns an empty FIB.
func NewTrie() *Trie {
	t := &Trie{}
	t.Clear()
	return t
}

// Len returns the number of routes.
func (t *Trie) Len() int { return t.n }

// Clear removes every route, keeping the node blocks for the next
// inserts.
func (t *Trie) Clear() {
	t.used, t.free, t.n, t.lastBits = 0, t.free[:0], 0, 0
	t.node() // the root
}

// bitAt returns bit i (0 = most significant) of a.
func bitAt(a uint32, i uint8) int { return int(a>>(31-i)) & 1 }

// at returns node i.
func (t *Trie) at(i uint32) *trieNode { return &t.blocks[i/trieBlock][i%trieBlock] }

// node returns a new empty node's index.
func (t *Trie) node() uint32 {
	i := t.used
	if k := len(t.free); k > 0 {
		i = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		if int(i/trieBlock) == len(t.blocks) {
			t.blocks = append(t.blocks, new([trieBlock]trieNode))
		}
		t.used++
	}
	*t.at(i) = trieNode{}
	return i
}

// Insert adds or replaces the route for r.Prefix.
func (t *Trie) Insert(r Route) {
	addr := r.Prefix.Addr.Uint32() & r.Prefix.Mask()
	d := min(r.Prefix.Bits, t.lastBits, uint8(bits.LeadingZeros32(addr^t.last)))
	nd := t.at(t.path[d])
	for i := d; i < r.Prefix.Bits; i++ {
		c := &nd.child[bitAt(addr, i)]
		if *c == 0 {
			*c = t.node() // blocks never move: c stays valid
		}
		t.path[i+1] = *c
		nd = t.at(*c)
	}
	t.last, t.lastBits = addr, r.Prefix.Bits
	if !nd.has {
		t.n++
	}
	nd.route, nd.has = r, true
}

// Remove deletes the route for prefix, reporting whether it existed.
// Emptied branches are pruned.
func (t *Trie) Remove(prefix pkt.Prefix) bool {
	addr := prefix.Addr.Uint32() & prefix.Mask()
	var path [33]uint32 // path[i] is the node at depth i; path[0] the root
	n := uint32(0)
	for i := uint8(0); i < prefix.Bits; i++ {
		if n = t.at(n).child[bitAt(addr, i)]; n == 0 {
			return false
		}
		path[i+1] = n
	}
	nd := t.at(n)
	if !nd.has {
		return false
	}
	nd.has, nd.route = false, Route{}
	t.n--
	t.lastBits = 0
	// Prune childless, routeless nodes bottom-up.
	for i := int(prefix.Bits); i > 0; i-- {
		nd := t.at(path[i])
		if nd.has || nd.child[0] != 0 || nd.child[1] != 0 {
			break
		}
		t.at(path[i-1]).child[bitAt(addr, uint8(i-1))] = 0
		t.free = append(t.free, path[i])
	}
	return true
}

// Lookup returns the longest-prefix-match route for ip.
func (t *Trie) Lookup(ip pkt.IP4) (Route, bool) {
	addr := ip.Uint32()
	var best *trieNode
	n := uint32(0)
	for i := uint8(0); ; i++ {
		nd := t.at(n)
		if nd.has {
			best = nd
		}
		if i == 32 {
			break
		}
		if n = nd.child[bitAt(addr, i)]; n == 0 {
			break
		}
	}
	if best == nil {
		return Route{}, false
	}
	return best.route, true
}

// Walk visits every route in prefix order (shorter prefixes first among
// ancestors; child order 0 then 1).
func (t *Trie) Walk(fn func(Route)) {
	var rec func(uint32)
	rec = func(n uint32) {
		nd := *t.at(n) // a copy: fn may change the trie
		if nd.has {
			fn(nd.route)
		}
		for _, c := range nd.child {
			if c != 0 {
				rec(c)
			}
		}
	}
	rec(0)
}
