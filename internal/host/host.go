// Package host simulates the host system a NetFPGA board is plugged
// into: the kernel driver's register access path and its netdev-style
// send/receive interface over the DMA engine. Host software (tests,
// examples, CLI tools) runs outside simulated time and interacts with the
// device between simulation runs — the standard co-simulation pattern.
package host

import (
	"errors"
	"fmt"

	"repro/internal/pcie"
	"repro/netfpga/hw"
)

// Errors returned by the driver.
var (
	ErrTxRingFull = errors.New("host: transmit ring full")
	ErrFrameSize  = errors.New("host: frame size out of range")
	ErrQueue      = errors.New("host: queue out of range")
	// ErrNoDMA refuses a send on a device whose design has no DMA
	// attach: nothing would take the frame off the to-device queue.
	ErrNoDMA = errors.New("host: the design has no DMA consumer")
)

// RxPacket is one received frame with its originating host queue.
type RxPacket struct {
	Data  []byte
	Queue int
	// Port is the physical ingress port the frame arrived on.
	Port uint8
	// At is the DMA completion time.
	At hw.Time
}

// Driver is the simulated kernel driver bound to one device.
type Driver struct {
	name   string
	engine *pcie.Engine
	regs   *hw.AddressMap
	pool   *hw.FramePool
	now    func() hw.Time

	// rxBuf and rxBytes collect the frames received since the last Poll
	// and their bytes, so the frames themselves go back to the design's
	// pool at once; lent is what the last Poll handed out, reused by the
	// round after the next.
	rxBuf   []RxPacket
	rxBytes []byte
	lent    *rxRound
	rxLimit int

	txSent, rxGot, rxDropped uint64
	ctrs                     hw.Counters
}

// NewDriver binds a driver to a DMA engine and register map. Transmit
// frames are drawn from pool — the design's, so the buffers the datapath
// recycles at its egress edges come back to Send (nil allocates). now
// provides the simulation clock for rx timestamps.
func NewDriver(name string, engine *pcie.Engine, regs *hw.AddressMap, pool *hw.FramePool, now func() hw.Time) *Driver {
	d := &Driver{name: name, engine: engine, regs: regs, pool: pool, now: now, rxLimit: 4096}
	d.ctrs.Grow(3)
	d.ctrs.Add("tx_sent", &d.txSent)
	d.ctrs.Add("rx_got", &d.rxGot)
	d.ctrs.Add("rx_dropped", &d.rxDropped)
	engine.SetDeliver(d.rxComplete)
	// Pre-post the full rx ring, as a real driver does at ifup.
	engine.PostRx(rxRing)
	return d
}

// rxRing is the receive ring the driver posts at bring-up.
const rxRing = 256

// rxRound is one round of received frames and the bytes they point into.
type rxRound struct {
	pkts  []RxPacket
	bytes []byte
}

// Reset returns the driver to the state NewDriver left it in, on an
// engine that was just reset: nothing received, counters zero, the full
// receive ring posted again. What the last Poll lent is no longer valid.
func (d *Driver) Reset() {
	d.rxBuf, d.rxBytes = d.rxBuf[:0], d.rxBytes[:0]
	d.txSent, d.rxGot, d.rxDropped = 0, 0, 0
	d.engine.PostRx(rxRing)
}

// Send transmits data out of host queue q, one of the hw.MaxHostPorts
// queues. The driver copies the frame, so the caller may reuse the
// buffer.
func (d *Driver) Send(data []byte, q int) error {
	if len(data) == 0 || len(data) > 9600 {
		return ErrFrameSize
	}
	if q < 0 || q >= hw.MaxHostPorts {
		return ErrQueue
	}
	// Ask before building the frame: pump loops call Send until it
	// refuses, and a refusal must cost nothing.
	if !d.engine.ToDevice().Consumed() {
		return ErrNoDMA
	}
	if d.engine.TxSpace() <= 0 {
		return ErrTxRingFull
	}
	f := d.pool.Get(len(data))
	copy(f.Data, data)
	f.Meta.SrcPort = uint8(hw.HostPortBase + q)
	f.Meta.Len = uint16(len(data))
	f.Meta.Flags = hw.FlagFromHost
	if !d.engine.HostSend(f) {
		d.pool.Put(f)
		return ErrTxRingFull
	}
	d.txSent++
	return nil
}

// rxComplete runs in simulated time as the DMA engine finishes a
// device→host transfer. A received frame's bytes are copied into the
// round's byte buffer, and the frame goes back to the pool either way,
// so host-bound traffic recycles its frames like tap-bound traffic does.
func (d *Driver) rxComplete(f *hw.Frame) {
	if len(d.rxBuf) >= d.rxLimit {
		d.rxDropped++
	} else {
		q := 0
		for i := 0; i < hw.MaxHostPorts; i++ {
			if f.Meta.DstPorts&hw.HostPortMask(i) != 0 {
				q = i
				break
			}
		}
		// A buffer that grows leaves the round's earlier copies where
		// they are, in the array it outgrew.
		n := len(d.rxBytes)
		d.rxBytes = append(d.rxBytes, f.Data...)
		data := d.rxBytes[n:len(d.rxBytes):len(d.rxBytes)]
		d.rxBuf = append(d.rxBuf, RxPacket{Data: data, Queue: q, Port: f.Meta.SrcPort, At: d.now()})
		d.rxGot++
	}
	d.pool.Put(f)
	// Replenish the consumed descriptor, as a real rx path does.
	d.engine.PostRx(1)
}

// Poll drains and returns the frames received since the last call, nil
// if there are none. It lends them: the slice and every packet's Data
// stay valid until the next Poll or Reset, and a caller that keeps them
// longer copies them. The round after the next collects into the
// buffers this one returns, so a steady receive loop allocates nothing.
func (d *Driver) Poll() []RxPacket {
	out := d.rxBuf
	if len(out) == 0 {
		return nil
	}
	if d.lent == nil {
		d.lent = new(rxRound)
	}
	l := d.lent
	d.rxBuf, l.pkts = l.pkts[:0], out
	d.rxBytes, l.bytes = l.bytes[:0], d.rxBytes
	return out
}

// RegReadName reads a register by "block.name" notation.
func (d *Driver) RegReadName(block, name string) (uint32, error) {
	addr, ok := d.regs.Lookup(block, name)
	if !ok {
		return 0, fmt.Errorf("host: no register %s.%s", block, name)
	}
	return d.regs.Read(addr)
}

// RegWriteName writes a register by "block.name" notation.
func (d *Driver) RegWriteName(block, name string, v uint32) error {
	addr, ok := d.regs.Lookup(block, name)
	if !ok {
		return fmt.Errorf("host: no register %s.%s", block, name)
	}
	return d.regs.Write(addr, v)
}

// ReadCounter64 reads a 64-bit counter mapped by hw.AddCounter64.
func (d *Driver) ReadCounter64(block, name string) (uint64, error) {
	lo, err := d.RegReadName(block, name+"_lo")
	if err != nil {
		return 0, err
	}
	hi, err := d.RegReadName(block, name+"_hi")
	if err != nil {
		return 0, err
	}
	return uint64(hi)<<32 | uint64(lo), nil
}

// Counters implements hw.CounterSource.
func (d *Driver) Counters() *hw.Counters { return &d.ctrs }
