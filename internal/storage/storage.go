// Package storage models the SUME storage subsystem — the MicroSD card
// and the two SATA-attached disks — which enable standalone (hostless)
// operation: a board can load its project image from local storage and
// run without a PCIe host. Devices are block-granular with a fixed access
// latency plus a streaming rate, over sparse backing.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/sim"
	"repro/netfpga/hw"
)

// Config parameterises a block device.
type Config struct {
	Name      string
	BlockSize int
	Blocks    uint64
	// AccessLat is the fixed per-command latency.
	AccessLat sim.Time
	// RateMBps is the streaming transfer rate in MB/s.
	RateMBps float64
}

// MicroSD returns a class-10 SD card profile (16 GB).
func MicroSD(name string) Config {
	return Config{Name: name, BlockSize: 512, Blocks: 16 << 30 / 512,
		AccessLat: 1 * sim.Millisecond, RateMBps: 40}
}

// SATASSD returns a SATA-II SSD profile (128 GB).
func SATASSD(name string) Config {
	return Config{Name: name, BlockSize: 512, Blocks: 128 << 30 / 512,
		AccessLat: 100 * sim.Microsecond, RateMBps: 250}
}

// BlockDev is a simulated block device. Commands queue on the single
// device port in issue order.
type BlockDev struct {
	cfg    Config
	sim    *sim.Sim
	blocks map[uint64][]byte
	free   sim.Time
	// done orders completions: the single port finishes commands in
	// issue order. Built on the first command, so an idle disk costs a
	// device nothing.
	done *sim.Lane[command]

	reads, writes uint64
	readBy        uint64
	writeBy       uint64
	ctrs          hw.Counters
}

// New builds a block device on the simulator.
func New(s *sim.Sim, cfg Config) *BlockDev {
	if cfg.BlockSize <= 0 || cfg.Blocks == 0 || cfg.RateMBps <= 0 {
		panic("storage: invalid config")
	}
	return &BlockDev{cfg: cfg, sim: s, blocks: make(map[uint64][]byte)}
}

// command is one queued read (rcb set) or write of count blocks at lba.
type command struct {
	lba   uint64
	count int
	data  []byte // write payload, the device's private copy
	rcb   func([]byte, error)
	wcb   func(error)
}

func (b *BlockDev) complete(c command) {
	bs := b.cfg.BlockSize
	if c.rcb != nil {
		buf := make([]byte, c.count*bs)
		for i := 0; i < c.count; i++ {
			if blk := b.blocks[c.lba+uint64(i)]; blk != nil {
				copy(buf[i*bs:], blk)
			}
		}
		c.rcb(buf, nil)
		return
	}
	for i := 0; i < c.count; i++ {
		b.blocks[c.lba+uint64(i)] = c.data[i*bs : (i+1)*bs]
	}
	if c.wcb != nil {
		c.wcb(nil)
	}
}

// Reset returns the device to the state New left it in: blank, idle,
// counters zero. Queued commands go with the simulator's lanes
// (sim.Sim.Reset).
func (b *BlockDev) Reset() {
	clear(b.blocks)
	b.free = 0
	b.reads, b.writes, b.readBy, b.writeBy = 0, 0, 0, 0
}

// Name returns the device name.
func (b *BlockDev) Name() string { return b.cfg.Name }

// xferTime returns latency + streaming time for n bytes.
func (b *BlockDev) xferTime(n int) sim.Time {
	stream := sim.Time(float64(n) / (b.cfg.RateMBps * 1e6) * float64(sim.Second))
	return b.cfg.AccessLat + stream
}

// issue queues c, which moves n bytes, behind the commands already on the
// port.
func (b *BlockDev) issue(n int, c command) {
	start := b.sim.Now()
	if b.free > start {
		start = b.free
	}
	b.free = start + b.xferTime(n)
	if b.done == nil {
		b.done = sim.NewLane(b.sim, b.complete)
	}
	b.done.Post(b.free, c)
}

func (b *BlockDev) checkRange(lba uint64, count int) error {
	if count <= 0 || lba+uint64(count) > b.cfg.Blocks {
		return fmt.Errorf("storage: %s access [%d, +%d) out of range", b.cfg.Name, lba, count)
	}
	return nil
}

// Read fetches count blocks starting at lba.
func (b *BlockDev) Read(lba uint64, count int, cb func([]byte, error)) {
	if err := b.checkRange(lba, count); err != nil {
		cb(nil, err)
		return
	}
	n := count * b.cfg.BlockSize
	b.reads++
	b.readBy += uint64(n)
	b.issue(n, command{lba: lba, count: count, rcb: cb})
}

// Write stores data (must be block-aligned in length) at lba.
func (b *BlockDev) Write(lba uint64, data []byte, cb func(error)) {
	if len(data)%b.cfg.BlockSize != 0 {
		cb(fmt.Errorf("storage: %s write of %d bytes not block-aligned", b.cfg.Name, len(data)))
		return
	}
	count := len(data) / b.cfg.BlockSize
	if err := b.checkRange(lba, count); err != nil {
		cb(err)
		return
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	b.writes++
	b.writeBy += uint64(len(data))
	b.issue(len(data), command{lba: lba, count: count, data: cp, wcb: cb})
}

// Counters implements hw.CounterSource. Disks sit outside the device
// snapshot, so the list is built on first use rather than per device.
func (b *BlockDev) Counters() *hw.Counters {
	if b.ctrs.Len() == 0 {
		b.ctrs.Add("reads", &b.reads)
		b.ctrs.Add("writes", &b.writes)
		b.ctrs.Add("read_bytes", &b.readBy)
		b.ctrs.Add("write_bytes", &b.writeBy)
	}
	return &b.ctrs
}

// Image format: gonetfpga "bitstream" images stored on a device for
// standalone boot. Layout: magic, length, CRC32, payload, zero-padded to
// a block boundary.

const imageMagic = 0x4E46_5347 // "NFSG"

// ErrBadImage reports a corrupt or absent image.
var ErrBadImage = errors.New("storage: bad or missing image")

// WriteImage stores payload as a boot image at lba.
func WriteImage(dev *BlockDev, lba uint64, payload []byte, cb func(error)) {
	bs := dev.cfg.BlockSize
	img := make([]byte, (12+len(payload)+bs-1)/bs*bs) // zero-padded to whole blocks
	binary.BigEndian.PutUint32(img[0:4], imageMagic)
	binary.BigEndian.PutUint32(img[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint32(img[8:12], crc32.ChecksumIEEE(payload))
	copy(img[12:], payload)
	dev.Write(lba, img, cb)
}

// LoadImage reads and validates a boot image at lba; maxBytes bounds the
// read. cb receives the payload or ErrBadImage.
func LoadImage(dev *BlockDev, lba uint64, maxBytes int, cb func([]byte, error)) {
	bs := dev.cfg.BlockSize
	count := (maxBytes + 12 + bs - 1) / bs
	dev.Read(lba, count, func(buf []byte, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		if binary.BigEndian.Uint32(buf[0:4]) != imageMagic {
			cb(nil, ErrBadImage)
			return
		}
		n := int(binary.BigEndian.Uint32(buf[4:8]))
		if n < 0 || 12+n > len(buf) {
			cb(nil, ErrBadImage)
			return
		}
		payload := buf[12 : 12+n]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(buf[8:12]) {
			cb(nil, ErrBadImage)
			return
		}
		cb(payload, nil)
	})
}
