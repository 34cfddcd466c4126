package lib

import (
	"math/rand"
	"sync"
	"testing"

	"repro/netfpga/pkt"
)

func mac(i uint64) pkt.MAC {
	return pkt.MAC{byte(i >> 40), byte(i >> 32), byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
}

func TestFlowTableBasics(t *testing.T) {
	ft := NewFlowTable[pkt.MAC, int](HashMAC, 4)
	if _, ok := ft.Get(mac(1)); ok {
		t.Fatal("empty table returned an entry")
	}
	ft.Put(mac(1), 10)
	ft.Put(mac(2), 20)
	ft.Put(mac(1), 11) // replace
	if ft.Len() != 2 {
		t.Fatalf("len = %d, want 2", ft.Len())
	}
	if v, ok := ft.Get(mac(1)); !ok || v != 11 {
		t.Fatalf("Get(1) = %d,%v", v, ok)
	}
	if !ft.Delete(mac(2)) {
		t.Fatal("Delete(2) = false")
	}
	if ft.Delete(mac(2)) {
		t.Fatal("double Delete(2) = true")
	}
	if ft.Len() != 1 {
		t.Fatalf("len = %d, want 1", ft.Len())
	}
}

// TestFlowTableVsMap drives the table and a reference map with the same
// random operation stream and demands identical observable state
// throughout, across many grows and backward-shift deletions.
func TestFlowTableVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ft := NewFlowTable[pkt.MAC, uint64](HashMAC, 8)
	ref := map[pkt.MAC]uint64{}
	const keySpace = 4096
	for op := 0; op < 200000; op++ {
		k := mac(uint64(rng.Intn(keySpace)))
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64()
			ft.Put(k, v)
			ref[k] = v
		case 1:
			got := ft.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%v) = %v, want %v", op, k, got, want)
			}
			delete(ref, k)
		case 2:
			gv, gok := ft.Get(k)
			wv, wok := ref[k]
			if gok != wok || gv != wv {
				t.Fatalf("op %d: Get(%v) = %d,%v want %d,%v", op, k, gv, gok, wv, wok)
			}
		}
		if ft.Len() != len(ref) {
			t.Fatalf("op %d: len %d, want %d", op, ft.Len(), len(ref))
		}
	}
	// Full sweep: everything in ref must be in the table and vice versa.
	seen := 0
	ft.Range(func(k pkt.MAC, v uint64) bool {
		if wv, ok := ref[k]; !ok || wv != v {
			t.Fatalf("Range surfaced %v=%d, ref has %d,%v", k, v, wv, ok)
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("Range visited %d entries, want %d", seen, len(ref))
	}
}

func TestFlowTableDeleteIf(t *testing.T) {
	ft := NewFlowTable[pkt.IP4, int64](HashIP4, 64)
	for i := 0; i < 100; i++ {
		ft.Put(pkt.IP4{10, 0, byte(i >> 8), byte(i)}, int64(i))
	}
	removed := ft.DeleteIf(func(_ pkt.IP4, v int64) bool { return v < 40 })
	if removed != 40 || ft.Len() != 60 {
		t.Fatalf("removed %d (len %d), want 40 (60)", removed, ft.Len())
	}
	ft.Range(func(k pkt.IP4, v int64) bool {
		if v < 40 {
			t.Fatalf("survivor %v=%d should have been deleted", k, v)
		}
		return true
	})
}

// TestFlowTableMillionEntries exercises the headline scale claim: a
// million live flows, every one retrievable without allocating, with
// load kept under the growth threshold.
func TestFlowTableMillionEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("large table")
	}
	const n = 1 << 20
	ft := NewFlowTable[pkt.MAC, uint32](HashMAC, n)
	for i := uint64(0); i < n; i++ {
		ft.Put(mac(i*0x9e3779b9+1), uint32(i))
	}
	if ft.Len() != n {
		t.Fatalf("len = %d, want %d", ft.Len(), n)
	}
	for i := uint64(0); i < n; i += 97 {
		if v, ok := ft.Get(mac(i*0x9e3779b9 + 1)); !ok || v != uint32(i) {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	// Lookups at this scale allocate nothing: one run is ~1000 Gets
	// spread over the table, so even one allocation per run shows.
	allocs := testing.AllocsPerRun(20, func() {
		for i := uint64(0); i < n; i += 1021 {
			if _, ok := ft.Get(mac(i*0x9e3779b9 + 1)); !ok {
				t.Fatalf("Get(%d) missed", i)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%.0f allocations per %d Gets, want 0", allocs, n/1021+1)
	}
}

// TestFlowTableConcurrentReaders is the -race stress: concurrent
// readers over a frozen table must be data-race free (mutation is
// single-owner by contract, reads after publication are not).
func TestFlowTableConcurrentReaders(t *testing.T) {
	ft := NewFlowTable[pkt.MAC, uint64](HashMAC, 1<<12)
	for i := uint64(0); i < 1<<12; i++ {
		ft.Put(mac(i), i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 20000; op++ {
				k := uint64(rng.Intn(1 << 13)) // half the probes miss
				v, ok := ft.Get(mac(k))
				if ok != (k < 1<<12) || (ok && v != k) {
					t.Errorf("Get(%d) = %d,%v", k, v, ok)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
