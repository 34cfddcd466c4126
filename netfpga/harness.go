package netfpga

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/netfpga/hw"
	"repro/netfpga/lib"
)

// The unified test environment (paper §3: "The test environment provides
// unified tests for simulation and hardware test, allowing simple
// validation of designs"). A TestVector set is written once and executed
// against two targets:
//
//   - the cycle-level design on a simulated device ("sim" mode), and
//   - its twin ("hw" mode stand-in, since there is no physical board in
//     this reproduction): the same project built on a second device that
//     never runs, whose stages' own decisions (lib.Twin) are applied to
//     each frame in vector time order, with the project's slow path
//     answering what they punt.
//
// Equivalence of the two runs is the test's pass criterion, exactly the
// workflow nf_test provides on the physical platform. The twin shares
// the decisions with the sim, so what it checks is the datapath around
// them: attach, arbitration, multicast replication, queueing, DMA and
// the slow-path loop.

// hostPortBase encodes host DMA queues in the harness port space:
// vector/output "port" HostPort(q) refers to host queue q rather than a
// front-panel port.
const hostPortBase = 1000

// HostPort returns the harness port number of host DMA queue q.
func HostPort(q int) int { return hostPortBase + q }

// FromHostPort decodes a harness port number; ok is true when p refers
// to a host queue.
func FromHostPort(p int) (q int, ok bool) {
	if p >= hostPortBase {
		return p - hostPortBase, true
	}
	return 0, false
}

// TestVector is one frame injected into a port at a given time (At 0
// sends as early as possible). Port may be HostPort(q) to inject from
// the host driver.
type TestVector struct {
	Port int
	Data []byte
	At   Time
}

// PortOutput is the per-port sequence of frames observed leaving the
// device.
type PortOutput map[int][][]byte

// RunSim executes vectors against a built device and collects per-port
// outputs (including host receptions under HostPort(q) keys). settle is
// how long to run after the last injection. A host vector the driver
// refuses is not injected; the error names each one by its index and
// queue with the driver's reason, and the outputs are still returned.
func RunSim(dev *Device, vectors []TestVector, settle Time) (PortOutput, error) {
	ports := dev.Board.Ports
	taps := make([]*PortTap, ports)
	for i := 0; i < ports; i++ {
		taps[i] = dev.Tap(i)
	}
	var last Time
	var refused []error
	for i, v := range vectors {
		at := v.At
		if at < dev.Now() {
			at = dev.Now()
		}
		if q, fromHost := FromHostPort(v.Port); fromHost {
			if dev.Driver == nil {
				refused = append(refused, fmt.Errorf("host vector %d on queue %d: the device has no host driver", i, q))
				continue
			}
			data := append([]byte(nil), v.Data...)
			dev.Sim.At(at, func() {
				if err := dev.Driver.Send(data, q); err != nil {
					refused = append(refused, fmt.Errorf("host vector %d on queue %d: %w", i, q, err))
				}
			})
		} else {
			taps[v.Port].SendAt(at, v.Data)
		}
		if at > last {
			last = at
		}
	}
	dev.RunFor(last - dev.Now() + settle)
	out := make(PortOutput)
	for i, t := range taps {
		for _, rx := range t.Received() {
			out[i] = append(out[i], rx.Data)
		}
	}
	if dev.Driver != nil {
		for _, rx := range dev.Driver.Poll() { // lent until the next Poll: copied
			out[HostPort(rx.Queue)] = append(out[HostPort(rx.Queue)], bytes.Clone(rx.Data))
		}
	}
	return out, errors.Join(refused...)
}

// Diff compares two port outputs as per-port multisets of frames (the
// sim may reorder frames that contend, but must emit the same frames on
// the same ports as its twin). It returns a human-readable list of
// discrepancies, empty when equivalent.
func Diff(a, b PortOutput) []string {
	var diffs []string
	key := func(data []byte) string { return string(data) }
	ports := map[int]bool{}
	for p := range a {
		ports[p] = true
	}
	for p := range b {
		ports[p] = true
	}
	var plist []int
	for p := range ports {
		plist = append(plist, p)
	}
	sort.Ints(plist)
	for _, p := range plist {
		am := map[string]int{}
		for _, f := range a[p] {
			am[key(f)]++
		}
		for _, f := range b[p] {
			am[key(f)]--
		}
		missing, extra := 0, 0
		for _, c := range am {
			if c > 0 {
				missing += c
			}
			if c < 0 {
				extra -= c
			}
		}
		if missing > 0 || extra > 0 {
			diffs = append(diffs, fmt.Sprintf(
				"port %d: %d frame(s) only in first output, %d only in second (first=%d second=%d total)",
				p, missing, extra, len(a[p]), len(b[p])))
		}
	}
	return diffs
}

// TestCase bundles vectors with the configuration of the project under
// test.
type TestCase struct {
	Name    string
	Vectors []TestVector
	// Settle is how long the sim target runs after the last injection;
	// 0 means 1 ms.
	Settle Time
	// Configure runs on each project instance after its Build, before
	// injection (table setup, register pokes): once for the sim target
	// and once for the twin.
	Configure func(p Project, dev *Device) error
}

// RunUnified builds a fresh project from newProject on newDevice() for
// each target, runs the case against the sim and the twin and checks
// equivalence. The twin models no queueing, so a case whose sim counts a
// queue drop fails too. It returns the two outputs for further
// assertions.
func RunUnified(newProject func() Project, newDevice func() *Device, tc TestCase) (simOut, twinOut PortOutput, err error) {
	build := func() (Project, *Device, error) {
		p, dev := newProject(), newDevice()
		if err := p.Build(dev); err != nil {
			return nil, nil, fmt.Errorf("build: %w", err)
		}
		if tc.Configure != nil {
			if err := tc.Configure(p, dev); err != nil {
				return nil, nil, fmt.Errorf("configure: %w", err)
			}
		}
		return p, dev, nil
	}
	_, dev, err := build()
	if err != nil {
		return nil, nil, err
	}
	settle := tc.Settle
	if settle == 0 {
		settle = Millisecond
	}
	if simOut, err = RunSim(dev, tc.Vectors, settle); err != nil {
		return simOut, nil, fmt.Errorf("%s: %w", tc.Name, err)
	}

	p, tdev, err := build()
	if err != nil {
		return nil, nil, err
	}
	if twinOut, err = runTwin(p, tdev, tc.Vectors); err != nil {
		return nil, nil, err
	}

	if diffs := Diff(simOut, twinOut); len(diffs) > 0 {
		return simOut, twinOut, fmt.Errorf("sim/twin divergence in %s: %v", tc.Name, diffs)
	}
	if n := dev.Dsn.Sum(hw.QueueDrop); n > 0 {
		return simOut, twinOut, fmt.Errorf("%s: the sim counted %d queue drop(s) though no frame went missing", tc.Name, n)
	}
	return simOut, twinOut, nil
}

// runTwin executes vectors against the twin of the project p built on
// dev. Frames enter in vector time order with the Meta the attach
// modules give them; a punted frame goes to the project's slow path if
// it has one, and what that emits re-enters as the agent injects it.
func runTwin(p Project, dev *Device, vectors []TestVector) (PortOutput, error) {
	decide, err := lib.Twin(dev)
	if err != nil {
		return nil, err
	}
	slow, _ := p.(interface{ SlowPath(f *hw.Frame) []Emit })
	out := make(PortOutput)
	var run func(f *hw.Frame)
	run = func(f *hw.Frame) {
		punted := decide(f)
		for bit := 0; bit < 32; bit++ {
			if f.Meta.DstPorts&(1<<uint(bit)) == 0 {
				continue
			}
			port := bit
			if bit >= hw.HostPortBase {
				port = HostPort(bit - hw.HostPortBase)
			}
			out[port] = append(out[port], f.Data)
		}
		if slow == nil {
			return
		}
		for _, pf := range punted {
			for _, e := range slow.SlowPath(pf) {
				g := hw.NewFrame(e.Data, 0)
				g.Meta.DstPorts = hw.PortMask(e.Port)
				g.Meta.Flags = hw.FlagFromCPU
				run(g)
			}
		}
	}
	sorted := make([]TestVector, len(vectors))
	copy(sorted, vectors)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	for _, v := range sorted {
		f := hw.NewFrame(append([]byte(nil), v.Data...), uint8(v.Port))
		if q, fromHost := FromHostPort(v.Port); fromHost {
			f.Meta.SrcPort = uint8(hw.HostPortBase + q)
			f.Meta.Flags = hw.FlagFromHost
		}
		run(f)
	}
	return out, nil
}
