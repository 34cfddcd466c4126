// Package workload synthesises realistic test traffic for benchmarks,
// examples and OSNT replay: weighted frame-size mixes (including the
// classic IMIX), multi-flow UDP conversations over configurable
// prefixes, and pcap emission so any generated workload can be replayed
// through the OSNT generator or external tools.
package workload

import (
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/netfpga/hw"
	"repro/netfpga/pcap"
	"repro/netfpga/pkt"
)

// SizeWeight is one frame size with its relative weight.
type SizeWeight struct {
	Bytes  int `json:"bytes"` // frame size without FCS
	Weight int `json:"weight"`
}

// IMIX returns the classic simple-IMIX distribution (7:4:1 of
// 64/576/1518-byte wire frames, expressed without FCS).
func IMIX() []SizeWeight {
	return []SizeWeight{{60, 7}, {572, 4}, {1514, 1}}
}

// FixedSize returns a single-size distribution.
func FixedSize(bytes int) []SizeWeight { return []SizeWeight{{bytes, 1}} }

// Config parameterises a generator.
type Config struct {
	// Seed makes the workload reproducible.
	Seed uint64
	// Sizes is the frame-size mix; nil means IMIX.
	Sizes []SizeWeight
	// Flows is the number of distinct UDP 5-tuples (0 means 64).
	Flows int
	// SrcNet/DstNet are the address pools; zero values mean
	// 10.1.0.0/16 and 10.2.0.0/16.
	SrcNet, DstNet pkt.Prefix
	// SrcMAC/DstMAC fix the L2 addresses; zero values use locally
	// administered defaults (switch workloads usually override per
	// frame after generation).
	SrcMAC, DstMAC pkt.MAC
	// Background tags the first Background flows (of Flows) as
	// background traffic for hybrid-fidelity runs: NextHybrid reports
	// their draws as aggregate (size-only) emissions instead of
	// serialized frames. 0 (the default) means every flow is
	// foreground; full-fidelity paths ignore the field entirely.
	Background int
}

// flow is one synthetic conversation.
type flow struct {
	src, dst       pkt.IP4
	sport, dport   uint16
	srcMAC, dstMAC pkt.MAC
}

// Generator produces frames from a fixed flow set with a weighted size
// mix. It is deterministic for a given Config.
type Generator struct {
	cfg   Config
	rng   sim.Rand
	flows []flow
	wheel []int // size index wheel for weighted sampling

	// Reused serialization state: one buffer, one set of layer structs
	// and one zero-payload scratch serve every Next call, so generating
	// a frame costs exactly one allocation (the returned copy), and a
	// NextView call costs none.
	sbuf    *pkt.SerializeBuffer
	eth     pkt.Ethernet
	ip      pkt.IPv4
	udp     pkt.UDP
	payload pkt.Payload
	layers  []pkt.SerializableLayer
	scratch []byte
	pad     []byte // zero-padding buffer for sub-minimum NextView frames

	// cache holds the serialized frame for each (flow, size) pair once
	// built: a frame's bytes depend only on those two draws, so after
	// the first serialization of a pair every later emission is a plain
	// lookup — no header writes, no checksum folds. Indexed
	// flowIdx*len(Sizes)+sizeIdx; an empty entry is a pair not built
	// yet, and an empty cache means the flow set is large enough that
	// the cache would outgrow the working set. Reset empties the
	// entries but keeps their buffers, past len(cache) too, so a reused
	// generator rebuilds its frames into buffers it already has; a Reset
	// to a config without a cache lets them go.
	cache [][]byte
}

// cacheMaxEntries bounds the (flow, size) frame cache; flow sets large
// enough to blow past it serialize every frame instead.
const cacheMaxEntries = 1 << 14

// serializeOpts mirrors pkt's convenience-builder options.
var serializeOpts = pkt.SerializeOptions{FixLengths: true, ComputeChecksums: true}

// imix is the default size mix; generators only read it, so a Reset to
// the default allocates no mix of its own.
var imix = IMIX()

// New builds a generator.
func New(cfg Config) (*Generator, error) {
	g := new(Generator)
	if err := g.Reset(cfg); err != nil {
		return nil, err
	}
	return g, nil
}

// Reset makes g the generator New(cfg) builds, keeping its flow set,
// size wheel and serialization buffers and the buffers of its frame
// cache: a sweep that runs many short cells resets one generator per
// worker instead of building one per cell. On error g is unchanged.
// Views returned before Reset are invalid after it.
func (g *Generator) Reset(cfg Config) error {
	if cfg.Sizes == nil {
		cfg.Sizes = imix
	}
	if cfg.Flows == 0 {
		cfg.Flows = 64
	}
	if cfg.SrcNet == (pkt.Prefix{}) {
		cfg.SrcNet = pkt.MustPrefix("10.1.0.0/16")
	}
	if cfg.DstNet == (pkt.Prefix{}) {
		cfg.DstNet = pkt.MustPrefix("10.2.0.0/16")
	}
	if cfg.SrcMAC.IsZero() {
		cfg.SrcMAC = pkt.MustMAC("02:77:00:00:00:01")
	}
	if cfg.DstMAC.IsZero() {
		cfg.DstMAC = pkt.MustMAC("02:77:00:00:00:02")
	}
	for _, s := range cfg.Sizes {
		if s.Bytes < 60 || s.Bytes > 9000 {
			return fmt.Errorf("workload: frame size %d out of range", s.Bytes)
		}
		if s.Weight <= 0 {
			return fmt.Errorf("workload: non-positive weight")
		}
	}
	if cfg.Background < 0 || cfg.Background > cfg.Flows {
		return fmt.Errorf("workload: background flows %d out of range [0, %d]",
			cfg.Background, cfg.Flows)
	}
	g.cfg = cfg
	g.rng.Seed(cfg.Seed ^ 0x3017c10ad)
	// Build the flow set deterministically.
	srcBase, dstBase := cfg.SrcNet.Addr.Uint32(), cfg.DstNet.Addr.Uint32()
	srcSpace := ^cfg.SrcNet.Mask()
	dstSpace := ^cfg.DstNet.Mask()
	g.flows = g.flows[:0]
	for i := 0; i < cfg.Flows; i++ {
		f := flow{
			src:    pkt.IP4FromUint32(srcBase | (g.rng.Uint32() & srcSpace)),
			dst:    pkt.IP4FromUint32(dstBase | (g.rng.Uint32() & dstSpace)),
			sport:  uint16(1024 + g.rng.Intn(60000)),
			dport:  uint16(1024 + g.rng.Intn(60000)),
			srcMAC: cfg.SrcMAC,
			dstMAC: cfg.DstMAC,
		}
		g.flows = append(g.flows, f)
	}
	// Weighted wheel for size sampling.
	g.wheel = g.wheel[:0]
	maxSize := 0
	for i, s := range cfg.Sizes {
		for w := 0; w < s.Weight; w++ {
			g.wheel = append(g.wheel, i)
		}
		if s.Bytes > maxSize {
			maxSize = s.Bytes
		}
	}
	if g.sbuf == nil {
		g.sbuf = pkt.NewSerializeBuffer()
		// Next re-wires udp's checksum layer every call, because it
		// overwrites the struct wholesale.
		g.layers = []pkt.SerializableLayer{&g.eth, &g.ip, &g.udp, &g.payload}
		g.pad = make([]byte, pkt.MinFrameSize)
	}
	if len(g.scratch) < maxSize {
		g.scratch = make([]byte, maxSize) // zeros; payloads slice into it
	}
	// The cardinality product can overflow int on absurd configs; a
	// wrapped (negative) or zero product must disable the cache, not
	// panic make or allocate a table nextView would index past.
	n := cfg.Flows * len(cfg.Sizes)
	if n < 0 || n > cacheMaxEntries {
		n = 0
	}
	if n == 0 {
		g.cache = nil // a generator without a cache holds no frames
	}
	if n > cap(g.cache) {
		grown := make([][]byte, n)
		copy(grown, g.cache[:cap(g.cache)])
		g.cache = grown
	}
	g.cache = g.cache[:n]
	for i := range g.cache {
		g.cache[i] = g.cache[i][:0]
	}
	return nil
}

// Next produces the next frame: a UDP packet from a uniformly chosen
// flow with a size drawn from the weighted mix. The returned slice is
// freshly allocated and owned by the caller; all intermediate
// serialization state is reused across calls.
func (g *Generator) Next() []byte {
	b := g.nextView()
	frame := make([]byte, len(b))
	copy(frame, b)
	return frame
}

// NextView is the allocation-free variant of Next: it produces exactly
// the same byte sequence from exactly the same RNG draws, but returns a
// view into the generator's reused serialization buffer. The view is
// valid only until the next Next, NextView or Reset call — callers that inject
// it immediately (PortTap.Send copies into a pooled frame) never need
// the allocation Next pays for.
func (g *Generator) NextView() []byte { return g.nextView() }

func (g *Generator) nextView() []byte {
	fi := g.rng.Intn(len(g.flows))
	si := g.wheel[g.rng.Intn(len(g.wheel))]
	return g.frameFor(fi, si)
}

// NextHybrid draws the next emission for a hybrid-fidelity run. It
// makes exactly the same two RNG draws as Next/NextView — flow, then
// size — so a hybrid run walks the identical (flow, size) sequence a
// full-fidelity run would. Foreground draws (flow index >=
// cfg.Background) return the serialized frame view exactly as NextView
// does; background draws skip serialization entirely and report only
// the wire size, which is what the analytic model consumes.
func (g *Generator) NextHybrid() (frame []byte, size int, background bool) {
	if g.cfg.Background == 0 {
		b := g.nextView()
		return b, len(b), false
	}
	fi := g.rng.Intn(len(g.flows))
	si := g.wheel[g.rng.Intn(len(g.wheel))]
	if fi < g.cfg.Background {
		// Sizes are validated >= 60 at New, so the serialized frame
		// would never be min-padded beyond its declared size.
		return nil, g.cfg.Sizes[si].Bytes, true
	}
	b := g.frameFor(fi, si)
	return b, len(b), false
}

// frameFor returns the (cached or freshly serialized) frame for a
// (flow, size) pair, filling the cache on a miss.
func (g *Generator) frameFor(fi, si int) []byte {
	if len(g.cache) == 0 {
		return g.serialize(fi, si)
	}
	i := fi*len(g.cfg.Sizes) + si
	if b := g.cache[i]; len(b) != 0 {
		return b
	}
	g.cache[i] = append(g.cache[i][:0], g.serialize(fi, si)...)
	return g.cache[i]
}

// serialize builds the frame of flow fi at size index si in the reused
// serialization state and returns a view of it (valid until the next
// serialize call).
func (g *Generator) serialize(fi, si int) []byte {
	f := &g.flows[fi]
	size := g.cfg.Sizes[si].Bytes
	payload := size - 42 // Eth(14)+IPv4(20)+UDP(8)
	if payload < 0 {
		payload = 0
	}
	g.eth = pkt.Ethernet{Dst: f.dstMAC, Src: f.srcMAC, EtherType: pkt.EtherTypeIPv4}
	g.ip = pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoUDP, Src: f.src, Dst: f.dst}
	g.udp = pkt.UDP{SrcPort: f.sport, DstPort: f.dport}
	g.udp.SetNetworkLayerForChecksum(&g.ip)
	g.payload = pkt.Payload(g.scratch[:payload])
	if err := pkt.SerializeTo(g.sbuf, serializeOpts, g.layers...); err != nil {
		panic(err) // sizes validated at New
	}
	b := g.sbuf.Bytes()
	if len(b) < pkt.MinFrameSize {
		// Zero-pad to the Ethernet minimum in the reused pad buffer; the
		// tail beyond the serialized bytes must be re-zeroed because a
		// previous shorter frame leaves stale bytes there.
		n := copy(g.pad, b)
		clear(g.pad[n:])
		b = g.pad
	}
	return b
}

// Cached reports whether g keeps every (flow, size) frame it
// serializes. If it does, a view NextView or NextHybrid returns stays
// valid, its bytes unchanged, until the next Reset; if not, only until
// the next Next, NextView or Reset call.
func (g *Generator) Cached() bool { return len(g.cache) > 0 }

// WritePcap emits n frames as a nanosecond pcap stream with CBR
// timestamps at rateMbps (wire-time spacing including the 24B per-frame
// overhead). The result can feed osnt.TraceFromPcap for replay.
func (g *Generator) WritePcap(w io.Writer, n int, rateMbps float64) error {
	if rateMbps <= 0 {
		return fmt.Errorf("workload: non-positive rate")
	}
	pw, err := pcap.NewWriter(w, 0, true)
	if err != nil {
		return err
	}
	ts := hw.Time(0)
	for i := 0; i < n; i++ {
		frame := g.Next()
		if err := pw.WritePacket(ts, frame); err != nil {
			return err
		}
		ts += sim.BitTime(int64(len(frame)+24)*8, rateMbps/1000)
	}
	return nil
}
