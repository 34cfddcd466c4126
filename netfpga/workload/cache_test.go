package workload

import (
	"bytes"
	"runtime"
	"testing"
)

// cacheCfg builds a config whose (flow, size) cardinality is exactly
// flows*3 (IMIX has three sizes), seeded for determinism.
func cacheCfg(flows int) Config {
	return Config{Seed: 42, Flows: flows, Sizes: IMIX()}
}

// TestCacheCardinalityCrossing pins the enable/disable decision on both
// sides of the 2^14 threshold: the cache exists exactly when the
// (flow, size) product fits, and degenerate products (zero, or an
// overflowed negative) leave it disabled instead of allocating an
// empty or absurd table.
func TestCacheCardinalityCrossing(t *testing.T) {
	perFlow := len(IMIX())
	under := cacheMaxEntries / perFlow  // 5461*3 = 16383 <= 2^14
	over := cacheMaxEntries/perFlow + 1 // 5462*3 = 16386 > 2^14
	if under*perFlow > cacheMaxEntries || over*perFlow <= cacheMaxEntries {
		t.Fatalf("fixture does not straddle the threshold: %d, %d", under*perFlow, over*perFlow)
	}

	gUnder, err := New(cacheCfg(under))
	if err != nil {
		t.Fatal(err)
	}
	if gUnder.cache == nil || !gUnder.Cached() {
		t.Fatalf("%d entries fit under the %d threshold but cache is disabled", under*perFlow, cacheMaxEntries)
	}
	gOver, err := New(cacheCfg(over))
	if err != nil {
		t.Fatal(err)
	}
	if gOver.cache != nil || gOver.Cached() {
		t.Fatalf("%d entries exceed the %d threshold but cache is enabled", over*perFlow, cacheMaxEntries)
	}

	// Empty size mix: product is zero; the cache must stay nil rather
	// than become a non-nil empty table.
	gZero, err := New(Config{Seed: 1, Flows: 4, Sizes: []SizeWeight{}})
	if err != nil {
		t.Fatal(err)
	}
	if gZero.cache != nil {
		t.Fatal("zero-cardinality config allocated a cache")
	}
}

// TestCacheTransparent: caching is an optimization, never a semantic
// change. The same config with the cache forcibly disabled produces a
// byte-identical frame stream, and Next equals NextView draw for draw.
func TestCacheTransparent(t *testing.T) {
	const frames = 2000
	cached, err := New(cacheCfg(64))
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := New(cacheCfg(64))
	if err != nil {
		t.Fatal(err)
	}
	uncached.cache = nil // simulate the over-threshold path on an identical config
	viewer, err := New(cacheCfg(64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		a, b := cached.Next(), uncached.Next()
		if !bytes.Equal(a, b) {
			t.Fatalf("frame %d diverges with cache disabled", i)
		}
		if v := viewer.NextView(); !bytes.Equal(a, v) {
			t.Fatalf("frame %d: Next and NextView diverge", i)
		}
	}
}

// TestNextViewAllocFree asserts the hot-path contract on BOTH sides of
// the threshold: with the cache warm it serves stored frames without
// allocating, and past the disable point every frame re-serializes into
// reused buffers — still without allocating. The disabled case is the
// one the threshold exists for: a flow set too big to cache must not
// regress NextView to one allocation per frame.
func TestNextViewAllocFree(t *testing.T) {
	perFlow := len(IMIX())
	for _, tc := range []struct {
		name  string
		flows int
	}{
		{"cached", 64},
		{"disabled", cacheMaxEntries/perFlow + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := New(cacheCfg(tc.flows))
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "disabled" && g.cache != nil {
				t.Fatal("fixture did not cross the disable threshold")
			}
			// Warm-up: fills the cache in the cached case (the alloc
			// measurement below is about steady state, not first touch)
			// and sizes the serialize buffer in both.
			warm := 50 * tc.flows * perFlow
			if tc.name == "disabled" {
				warm = 10000
			}
			for i := 0; i < warm; i++ {
				g.NextView()
			}
			if tc.name == "cached" {
				for i, b := range g.cache {
					if b == nil {
						t.Fatalf("cache entry %d still cold after warm-up", i)
					}
				}
			}
			if allocs := mallocsPerCall(10000, func() { g.NextView() }); allocs != 0 {
				t.Fatalf("NextView allocates %.4f per op, want 0", allocs)
			}
		})
	}
}

// mallocsPerCall returns the mean heap allocations of one call of f over
// n calls on one P. testing.AllocsPerRun truncates that mean to an
// integer, which passes 0.4 allocations per frame as 0.
func mallocsPerCall(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// BenchmarkNextView measures the per-frame cost on both sides of the
// cache threshold; run with -benchmem to see the 0 allocs/op claim.
func BenchmarkNextView(b *testing.B) {
	perFlow := len(IMIX())
	for _, tc := range []struct {
		name  string
		flows int
	}{
		{"cached/flows=64", 64},
		{"disabled/flows=5462", cacheMaxEntries/perFlow + 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g, err := New(cacheCfg(tc.flows))
			if err != nil {
				b.Fatal(err)
			}
			var bytesOut uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bytesOut += uint64(len(g.NextView()))
			}
			b.SetBytes(int64(bytesOut / uint64(b.N)))
		})
	}
}

// TestCachedViewsStayPut: on a generator that reports Cached, every view
// NextView and NextHybrid return keeps its bytes until Reset, while the
// generator draws on; each kept view equals the copy Next returned for
// the same draw on a twin generator.
func TestCachedViewsStayPut(t *testing.T) {
	cfg := Config{Seed: 7, Flows: 16, Background: 8, Sizes: IMIX()}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Cached() {
		t.Fatal("a 48-entry config is not cached")
	}
	var views, copies [][]byte
	for i := 0; i < 2000; i++ {
		var v []byte
		bg := false
		if i%2 == 0 {
			v = g.NextView()
		} else {
			v, _, bg = g.NextHybrid()
		}
		if c := twin.Next(); !bg {
			views, copies = append(views, v), append(copies, c)
		}
	}
	for i := range views {
		if !bytes.Equal(views[i], copies[i]) {
			t.Fatalf("view %d changed after later draws", i)
		}
	}
}
