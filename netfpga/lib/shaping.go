package lib

import "repro/netfpga/hw"

// RateLimiter shapes a beat stream with a byte-granular token bucket —
// the building block OSNT's generator and QoS experiments insert into a
// pipeline. Rate and burst are run-time register-controllable, a
// deliberately software-visible knob as in the contributed NetFPGA rate
// limiter module.
type RateLimiter struct {
	name string
	d    *hw.Design
	in   *hw.Stream
	out  *hw.Stream

	// Register-backed configuration, and its construction-time values.
	rateMbps uint32 // 0 disables shaping
	burstB   uint32
	rate0    uint32
	burst0   uint32

	tokens     float64
	lastCycle  uint64
	inPacket   bool // frames pass atomically once started
	pkts, held uint64
	ctrs       hw.Counters
}

// NewRateLimiter creates a limiter initially configured to rateMbps.
func NewRateLimiter(d *hw.Design, name string, in, out *hw.Stream, rateMbps, burstBytes uint32) *RateLimiter {
	if burstBytes == 0 {
		burstBytes = 3000
	}
	r := &RateLimiter{name: name, d: d, in: in, out: out, rate0: rateMbps, burst0: burstBytes}
	r.Reset()
	r.ctrs.Grow(2)
	r.ctrs.Add("pkts", &r.pkts)
	r.ctrs.Add("held_cycles", &r.held)
	d.AddModule(r)
	d.Consume(r, in)
	return r
}

// Name implements hw.Module.
func (r *RateLimiter) Name() string { return r.name }

// Resources implements hw.Module.
func (r *RateLimiter) Resources() hw.Resources {
	return hw.Resources{LUTs: 900, FFs: 1100, DSPs: 2}
}

// Tick implements hw.Module.
func (r *RateLimiter) Tick() bool {
	// Accrue tokens for elapsed cycles (handles gated stretches).
	cyc := r.d.Clock().Cycle()
	if r.rateMbps > 0 && cyc > r.lastCycle {
		elapsed := float64(cyc-r.lastCycle) * float64(r.d.Clock().Period()) // ps
		r.tokens += elapsed * float64(r.rateMbps) / 8e6                     // bytes
		if r.tokens > float64(r.burstB) {
			r.tokens = float64(r.burstB)
		}
	}
	r.lastCycle = cyc

	if !r.in.CanPop() || !r.out.CanPush() {
		return r.in.CanPop()
	}
	b := r.in.Peek()
	if b.First() && !r.inPacket && r.rateMbps > 0 {
		need := float64(b.Frame.Len())
		if r.tokens < need {
			r.held++
			return true // wait for tokens; clock keeps running
		}
		r.tokens -= need
	}
	if b.First() {
		r.pkts++
		r.inPacket = true
	}
	r.out.Push(r.in.Pop())
	if b.Last {
		r.inPacket = false
	}
	return true
}

// Reset implements hw.Resetter: the construction-time rate and burst, a
// full bucket.
func (r *RateLimiter) Reset() {
	r.rateMbps, r.burstB = r.rate0, r.burst0
	r.tokens = float64(r.burst0)
	r.lastCycle, r.inPacket = 0, false
	r.pkts, r.held = 0, 0
}

// Registers exposes run-time control.
func (r *RateLimiter) Registers() *hw.RegisterFile {
	rf := hw.NewRegisterFile(r.name)
	rf.AddVar(0x0, "rate_mbps", &r.rateMbps)
	rf.AddVar(0x4, "burst_bytes", &r.burstB)
	rf.AddCounters(0x8, r.ctrs.List()[0])
	return rf
}

// Counters implements hw.CounterSource.
func (r *RateLimiter) Counters() *hw.Counters { return &r.ctrs }

// Delay releases each frame a fixed time after its first beat arrived —
// OSNT's inter-packet delay module, also useful for emulating long links
// inside a design.
type Delay struct {
	name  string
	d     *hw.Design
	in    *hw.Stream
	out   *hw.Stream
	delay hw.Time
	// delay0 is the construction-time delay Reset restores.
	delay0 hw.Time

	heldFrame *hw.Frame
	readyAt   hw.Time
	emit      hw.Emitter
	pkts      uint64
	ctrs      hw.Counters
}

// NewDelay creates a fixed-delay module.
func NewDelay(d *hw.Design, name string, in, out *hw.Stream, delay hw.Time) *Delay {
	dm := &Delay{name: name, d: d, in: in, out: out, delay: delay, delay0: delay}
	dm.ctrs.Add("pkts", &dm.pkts)
	d.AddModule(dm)
	d.Consume(dm, in)
	return dm
}

// Name implements hw.Module.
func (dm *Delay) Name() string { return dm.name }

// Resources implements hw.Module: the delay BRAM buffers a window of
// packets.
func (dm *Delay) Resources() hw.Resources {
	return hw.Resources{LUTs: 1200, FFs: 1500, BRAM36: 16}
}

// SetDelay changes the delay (takes effect for subsequent frames).
func (dm *Delay) SetDelay(d hw.Time) { dm.delay = d }

// Reset implements hw.Resetter: nothing held, the construction-time
// delay.
func (dm *Delay) Reset() {
	dm.heldFrame, dm.readyAt, dm.emit, dm.pkts = nil, 0, hw.Emitter{}, 0
	dm.delay = dm.delay0
}

// Tick implements hw.Module.
func (dm *Delay) Tick() bool {
	busy := false
	if pushed, _ := dm.emit.Emit(dm.out, dm.d.BusBytes()); pushed {
		busy = true
	}
	if dm.heldFrame == nil {
		if f, done := (collectFrame{}).collect(dm.in); done {
			dm.heldFrame = f
			dm.readyAt = dm.d.Now() + dm.delay
			busy = true
		}
	}
	if dm.heldFrame != nil {
		busy = true
		if dm.d.Now() >= dm.readyAt && !dm.emit.Active() {
			dm.emit.Start(dm.heldFrame)
			dm.heldFrame = nil
			dm.pkts++
		}
	}
	return busy || dm.in.CanPop() || dm.emit.Active()
}

// Counters implements hw.CounterSource.
func (dm *Delay) Counters() *hw.Counters { return &dm.ctrs }
