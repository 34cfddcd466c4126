package sweep

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/projects"
	"repro/netfpga/workload"
)

// idleKeysPerWorker bounds how many built devices a plan keeps idle
// between cells, per worker of the widest pool that has run it. A sweep
// runs hundreds of cells over a handful of (board, project, options)
// combinations — the paper plan over 12 — so a worker that keeps one
// device per combination builds each once; the bound keeps a long
// sweep's memory from growing with its variety. A key never has more
// idle devices than workers: one is built only when none is idle.
const idleKeysPerWorker = 12

// idleFrameBytes bounds the buffers of the free frames a plan keeps
// between cells (devices.frames).
const idleFrameBytes = 1 << 20

// maxIdleParts bounds the drawers, each with its workload generator, a
// plan keeps idle: a cell holds at most one.
const maxIdleParts = 8

// deviceKey identifies interchangeable devices: the registry board, or
// the fingerprint of a board a spec derives per cell (BoardFor), the
// project, and the effective options but the seed, which Reset sets.
type deviceKey struct {
	board, spec, project string
	opts                 netfpga.Options
}

// boardPrint is a fingerprint of a board: two boards share it exactly
// when devices built on them are interchangeable. It covers what a
// device is built from — the name its parts are named after, the FPGA,
// each port's MAC configuration, the PCIe link, memories and storage,
// bus and clock — none of which holds a pointer, so printed with %#v
// it is exact.
func boardPrint(b netfpga.BoardSpec) string {
	var s strings.Builder
	fmt.Fprintf(&s, "%q %#v %#v %#v %#v %#v %d %#v %v", b.Name, b.FPGA, b.PCIe, b.SRAM, b.DRAM, b.Storage, b.BusBytes, b.ClockMHz, b.Standalone)
	for i := 0; i < b.Ports; i++ {
		fmt.Fprintf(&s, " %#v", b.PortConfig(i))
	}
	return s.String()
}

// idleDevice is a built device waiting for its next cell, and the
// project built on it.
type idleDevice struct {
	key  deviceKey
	dev  *netfpga.Device
	proj hw.Resetter
}

// devices is a plan's cache of idle devices: programmed once, reset
// between cells, as a board is between the tests of a session. It also
// keeps the drawers — workload generators and GenericMeasure's chunks —
// finished cells released, which the next cells reset in place, so a
// plan builds about one per worker. Safe for concurrent use by the plan's
// workers.
type devices struct {
	mu      sync.Mutex
	idle    []idleDevice // least recently released first
	workers int          // the widest pool that has run the plan's cells
	// frames holds the free frames of devices between cells: a device
	// hands its pool's free frames in when its cell ends, and a device
	// starting a cell takes as many as the last one under its key handed
	// in (want), so the frames serve whichever device runs next instead
	// of every idle device keeping the most its cells ever needed. A
	// device built for one cell takes and hands in frames too.
	frames hw.FramePool
	want   map[deviceKey]int
	// spare is what the last cell to call Ctx.Keep kept.
	spare   any
	drawers []*drawer
}

// widen records that a pool of width workers runs the plan's cells.
func (c *devices) widen(width int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers = max(c.workers, width)
}

// drawer returns a drawer for one cell, its generator reset to cfg: one
// a finished cell released, its buffers kept, or a new one. A nil cache
// always builds.
func (c *devices) drawer(cfg workload.Config) (*drawer, error) {
	var d *drawer
	if c != nil {
		c.mu.Lock()
		if n := len(c.drawers); n > 0 {
			d = c.drawers[n-1]
			c.drawers = c.drawers[:n-1]
		}
		c.mu.Unlock()
	}
	if d == nil {
		g, err := workload.New(cfg)
		return &drawer{gen: g}, err
	}
	return d, d.gen.Reset(cfg)
}

// releaseDrawer keeps d for a later cell, up to maxIdleParts idle
// drawers. The cell must hold no view of its generator's frames any
// more. An idle drawer keeps its generator's frame cache — at most 2^14
// entries, each as large as the largest frame it has built — and its
// chunks' buffers: at most aheadChunks x (aheadArena + one interval's
// draws) of copies and send records, and aheadChunk intervals of
// background aggregates (5 bytes per port) each.
func (c *devices) releaseDrawer(d *drawer) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.drawers) < maxIdleParts {
		c.drawers = append(c.drawers, d)
	}
}

// acquire returns a device for a cell of project entry — none when
// entry.New is nil — on board spec: the named registry board, or with
// board "" one a spec derived for the cell, keyed by its fingerprint.
// A project's device is an idle one under the same key, reseeded to
// opts.Seed, or a new one, built and sealed, and its release returns it
// to the cache after a clean cell. A device without a project, or whose
// project is not an hw.Resetter, is built for the cell and dropped
// after it, as is one whose Reset fails; its release only hands its
// free frames in.
func (c *devices) acquire(spec netfpga.BoardSpec, board string, entry projects.Entry, opts netfpga.Options) (*netfpga.Device, func(bool), error) {
	key := deviceKey{board: board, project: entry.Name, opts: opts}
	if board == "" {
		key.spec = boardPrint(spec)
	}
	key.opts.Seed = 0
	if entry.New != nil {
		if d, ok := c.take(key); ok {
			d.dev.Reseed(opts.Seed)
			return d.dev, c.releaser(d), nil
		}
	}
	dev := netfpga.NewDevice(spec, opts)
	c.lend(key, dev)
	if entry.New == nil {
		return dev, c.returner(key, dev), nil
	}
	proj := entry.New()
	if err := proj.Build(dev); err != nil {
		return nil, nil, err
	}
	r, ok := proj.(hw.Resetter)
	if !ok {
		return dev, c.returner(key, dev), nil
	}
	dev.Seal()
	return dev, c.releaser(idleDevice{key: key, dev: dev, proj: r}), nil
}

// take removes and returns the most recently released idle device under
// key, with the frames it wants.
func (c *devices) take(key deviceKey) (idleDevice, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.idle) - 1; i >= 0; i-- {
		if c.idle[i].key == key {
			d := c.idle[i]
			c.idle = slices.Delete(c.idle, i, i+1)
			d.dev.Dsn.Pool().Move(&c.frames, c.want[key])
			return d, true
		}
	}
	return idleDevice{}, false
}

// lend gives dev the free frames a device under key wants.
func (c *devices) lend(key deviceKey, dev *netfpga.Device) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dev.Dsn.Pool().Move(&c.frames, c.want[key])
}

// reclaim takes dev's free frames back, as many as a device under key
// will want next, keeping at most idleFrameBytes of them. The caller
// holds c.mu.
func (c *devices) reclaim(key deviceKey, dev *netfpga.Device) {
	if c.want == nil {
		c.want = make(map[deviceKey]int)
	}
	c.want[key] = c.frames.Move(dev.Dsn.Pool(), math.MaxInt)
	c.frames.Trim(idleFrameBytes)
}

// returner returns the release of a device used for one cell: after a
// clean cell it hands the device's free frames in.
func (c *devices) returner(key deviceKey, dev *netfpga.Device) func(bool) {
	return func(clean bool) {
		if clean {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.reclaim(key, dev)
		}
	}
}

// releaser returns d to the cache after a clean cell, reset, evicting
// the least recently released device when the cache is full; after any
// other cell it lets d go. The reset happens here rather than at the
// next acquire, which only reseeds, so an idle device holds nothing of
// its last cell: no captures, and the frames it left in flight are back
// among the plan's free frames.
func (c *devices) releaser(d idleDevice) func(bool) {
	return func(clean bool) {
		if !clean || !d.dev.Reset(0) {
			return
		}
		d.proj.Reset()
		c.mu.Lock()
		defer c.mu.Unlock()
		c.reclaim(d.key, d.dev)
		if len(c.idle) >= idleKeysPerWorker*max(c.workers, 1) {
			c.idle = slices.Delete(c.idle, 0, 1)
		}
		c.idle = append(c.idle, d)
	}
}
