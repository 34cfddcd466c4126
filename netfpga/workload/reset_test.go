package workload

import (
	"bytes"
	"slices"
	"testing"
)

// resetFlows are the flow counts FuzzGeneratorReset draws from: small
// sets (0 means the default 64), and sets on both sides of the 2^14
// (flow, size) cache bound for three sizes (IMIX), two and one.
var resetFlows = []int{0, 1, 7, 64, 300, 5461, 5462, 8192, 8193, 16384, 16385}

// resetConfig decodes one 8-byte program record's config: seed, flow
// count, size count (0 means nil, IMIX), sizes, weights and background
// share. A size byte of 255, a weight byte of 255 and a background byte
// of 254 or 255 make configs New refuses.
func resetConfig(b []byte) Config {
	cfg := Config{Seed: uint64(b[0]) * 0x9e3779b97f4a7c15, Flows: resetFlows[int(b[1])%len(resetFlows)]}
	if n := int(b[2] % 4); n > 0 {
		cfg.Sizes = make([]SizeWeight, n)
		for i := range cfg.Sizes {
			cfg.Sizes[i] = SizeWeight{
				Bytes:  60 + (int(b[3])+89*i)%256*35,
				Weight: 1 + int(b[4]>>(2*i))&3,
			}
		}
		if b[3] == 255 {
			cfg.Sizes[0].Bytes = 9001
		}
		if b[4] == 255 {
			cfg.Sizes[0].Weight = 0
		}
	}
	flows := cfg.Flows
	if flows == 0 {
		flows = 64
	}
	switch b[5] {
	case 255:
		cfg.Background = flows + 1
	case 254:
		cfg.Background = -1
	default:
		cfg.Background = flows * int(b[5]%5) / 4
	}
	return cfg
}

// drawBoth draws n frames from g and want alike, each through Next,
// NextView or NextHybrid as modes selects, and fails on the first
// difference.
func drawBoth(t *testing.T, g, want *Generator, n, modes byte) {
	t.Helper()
	for i := 0; i < int(n%48)+1; i++ {
		switch modes >> (2 * (i % 4)) & 3 {
		case 0:
			if got, exp := g.NextView(), want.NextView(); !bytes.Equal(got, exp) {
				t.Fatalf("draw %d: NextView %x, fresh %x", i, got, exp)
			}
		case 1:
			got, gotSize, gotBG := g.NextHybrid()
			exp, expSize, expBG := want.NextHybrid()
			if !bytes.Equal(got, exp) || gotSize != expSize || gotBG != expBG {
				t.Fatalf("draw %d: NextHybrid (%x, %d, %v), fresh (%x, %d, %v)",
					i, got, gotSize, gotBG, exp, expSize, expBG)
			}
		default:
			if got, exp := g.Next(), want.Next(); !bytes.Equal(got, exp) {
				t.Fatalf("draw %d: Next %x, fresh %x", i, got, exp)
			}
		}
	}
}

// FuzzGeneratorReset: one generator reset through a sequence of configs
// emits, config after config, exactly what a fresh New of each emits —
// flow set, frames through every draw method, counters — whether its
// cache crosses the 2^14 bound up or down between configs; and a config
// Reset refuses leaves it drawing on as before.
func FuzzGeneratorReset(f *testing.F) {
	f.Add([]byte{ // the cache bound crossed both ways
		1, 3, 0, 0, 0, 0, 40, 0x1B, // IMIX, 64 flows
		2, 6, 0, 0, 0, 1, 40, 0x6C, // IMIX, 5462 flows: no cache; a quarter background
		3, 3, 0, 0, 0, 2, 47, 0xE4, // IMIX, 64 flows again
		4, 9, 1, 0, 0, 0, 30, 0x00, // one size, 16384 flows: exactly at the bound
		5, 10, 1, 7, 0, 3, 30, 0x55, // 16385 flows: past it
		6, 7, 2, 9, 5, 4, 20, 0xAA, // two sizes, 8192 flows, all background
		7, 8, 2, 9, 5, 0, 20, 0x1B, // 8193 flows
		8, 2, 3, 100, 0x24, 2, 47, 0x93, // three sizes, 7 flows
	})
	f.Add([]byte{ // refused configs in between
		1, 3, 2, 10, 1, 0, 10, 0x1B,
		2, 3, 2, 10, 0xFF, 0, 10, 0x1B, // a zero weight
		3, 4, 1, 0, 0, 255, 10, 0x1B, // more background flows than flows
		4, 1, 1, 255, 0, 0, 10, 0x1B, // a 9001-byte frame
		5, 5, 1, 0, 0, 0, 10, 0x00,
	})
	f.Fuzz(func(t *testing.T, prog []byte) {
		g := new(Generator)
		var want *Generator // a fresh New of g's last accepted config, drawn in step
		for ; len(prog) >= 8; prog = prog[8:] {
			cfg := resetConfig(prog)
			fresh, err := New(cfg)
			if rerr := g.Reset(cfg); (rerr == nil) != (err == nil) {
				t.Fatalf("Reset(%+v) error %v, New error %v", cfg, rerr, err)
			}
			if err == nil {
				want = fresh
			}
			if want == nil {
				continue
			}
			if !slices.Equal(g.flows, want.flows) || g.cfg.Background != want.cfg.Background {
				t.Fatalf("config %+v: flow set differs from a fresh New", cfg)
			}
			drawBoth(t, g, want, prog[6], prog[7])
		}
	})
}
