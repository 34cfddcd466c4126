package sweep

import (
	"slices"
	"sync"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/projects"
	"repro/netfpga/workload"
)

// maxIdleDevices bounds how many built devices a plan keeps idle between
// cells. A sweep runs hundreds of cells over a handful of (board,
// project, options) combinations, a few at a time per worker, so a
// handful of idle devices serves them; the bound keeps a long sweep's
// memory from growing with its variety.
const maxIdleDevices = 8

// deviceKey identifies interchangeable devices: the registry board and
// project, and the effective options but the seed, which Reset sets.
type deviceKey struct {
	board, project string
	opts           netfpga.Options
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
// keeps the workload generators finished cells released, which the next
// cells reset in place, so a plan builds about one per worker. Safe for
// concurrent use by the plan's workers.
type devices struct {
	mu   sync.Mutex
	idle []idleDevice // least recently released first
	gens []*workload.Generator
}

// generator returns a workload generator for cfg: one a finished cell
// released, reset to cfg, or a new one. A nil cache always builds.
func (c *devices) generator(cfg workload.Config) (*workload.Generator, error) {
	var g *workload.Generator
	if c != nil {
		c.mu.Lock()
		if n := len(c.gens); n > 0 {
			g = c.gens[n-1]
			c.gens = c.gens[:n-1]
		}
		c.mu.Unlock()
	}
	if g == nil {
		return workload.New(cfg)
	}
	return g, g.Reset(cfg)
}

// releaseGenerator keeps g for a later cell, up to maxIdleDevices idle
// generators. The cell must hold no view of g's frames any more. An idle
// generator keeps its frame cache's buffers: at most 2^14 entries, each
// as large as the largest frame it has built.
func (c *devices) releaseGenerator(g *workload.Generator) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.gens) < maxIdleDevices {
		c.gens = append(c.gens, g)
	}
}

// acquire returns a device for a cell of project entry on the named
// registry board, whose spec is given: an idle one under the same key,
// reseeded to opts.Seed, or a new one, built and sealed. Its release
// returns it to the cache after a clean cell. A project that is not an
// hw.Resetter, or a device whose Reset fails, is used once and dropped.
func (c *devices) acquire(spec netfpga.BoardSpec, board string, entry projects.Entry, opts netfpga.Options) (*netfpga.Device, func(bool), error) {
	key := deviceKey{board: board, project: entry.Name, opts: opts}
	key.opts.Seed = 0
	if d, ok := c.take(key); ok {
		d.dev.Reseed(opts.Seed)
		return d.dev, c.releaser(d), nil
	}
	dev := netfpga.NewDevice(spec, opts)
	proj := entry.New()
	if err := proj.Build(dev); err != nil {
		return nil, nil, err
	}
	r, ok := proj.(hw.Resetter)
	if !ok {
		return dev, nil, nil
	}
	dev.Seal()
	return dev, c.releaser(idleDevice{key: key, dev: dev, proj: r}), nil
}

// take removes and returns the most recently released idle device under
// key.
func (c *devices) take(key deviceKey) (idleDevice, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.idle) - 1; i >= 0; i-- {
		if c.idle[i].key == key {
			d := c.idle[i]
			c.idle = slices.Delete(c.idle, i, i+1)
			return d, true
		}
	}
	return idleDevice{}, false
}

// releaser returns d to the cache after a clean cell, reset, evicting
// the least recently released device when the cache is full; after any
// other cell it lets d go. The reset happens here rather than at the
// next acquire, which only reseeds, so an idle device holds nothing of
// its last cell: no captures, no frames in flight.
func (c *devices) releaser(d idleDevice) func(bool) {
	return func(clean bool) {
		if !clean || !d.dev.Reset(0) {
			return
		}
		d.proj.Reset()
		c.mu.Lock()
		defer c.mu.Unlock()
		if len(c.idle) == maxIdleDevices {
			c.idle = slices.Delete(c.idle, 0, 1)
		}
		c.idle = append(c.idle, d)
	}
}
