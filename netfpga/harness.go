package netfpga

import (
	"fmt"
	"sort"
)

// The unified test environment (paper §3: "The test environment provides
// unified tests for simulation and hardware test, allowing simple
// validation of designs"). A TestVector set is written once and executed
// against two targets:
//
//   - the cycle-level design on a simulated device ("sim" mode), and
//   - the project's behavioral model ("hw" mode stand-in, since there is
//     no physical board in this reproduction).
//
// Equivalence of the two runs is the test's pass criterion, exactly the
// workflow nf_test provides on the physical platform.

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
// how long to run after the last injection.
func RunSim(dev *Device, vectors []TestVector, settle Time) PortOutput {
	ports := dev.Board.Ports
	taps := make([]*PortTap, ports)
	for i := 0; i < ports; i++ {
		taps[i] = dev.Tap(i)
	}
	var last Time
	for _, v := range vectors {
		at := v.At
		if at < dev.Now() {
			at = dev.Now()
		}
		if q, fromHost := FromHostPort(v.Port); fromHost {
			data := append([]byte(nil), v.Data...)
			dev.Sim.At(at, func() { _ = dev.Driver.Send(data, q) })
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
		for _, rx := range dev.Driver.Poll() {
			out[HostPort(rx.Queue)] = append(out[HostPort(rx.Queue)], rx.Data)
		}
	}
	return out
}

// RunBehavioral executes vectors against a behavioral model in vector
// order.
func RunBehavioral(b Behavioral, vectors []TestVector) PortOutput {
	// Behavioral models are timing-free; honour At ordering.
	sorted := make([]TestVector, len(vectors))
	copy(sorted, vectors)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	out := make(PortOutput)
	for _, v := range sorted {
		for _, e := range b.Process(v.Port, v.Data) {
			out[e.Port] = append(out[e.Port], e.Data)
		}
	}
	return out
}

// Diff compares two port outputs as per-port multisets of frames (cycle
// and behavioral targets may reorder across flows, but must emit the
// same frames on the same ports). It returns a human-readable list of
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

// TestCase bundles vectors with the project under test.
type TestCase struct {
	Name    string
	Vectors []TestVector
	// Settle is how long the sim target runs after the last injection;
	// 0 means 1 ms.
	Settle Time
	// Configure runs before injection on the sim target (table setup,
	// register pokes). ConfigureBehavioral mirrors it on the behavioral
	// model.
	Configure           func(dev *Device) error
	ConfigureBehavioral func(b Behavioral) error
}

// RunUnified builds the project fresh on newDevice(), runs the case
// against both targets and checks equivalence. It returns the two
// outputs for further assertions.
func RunUnified(p BehavioralProject, newDevice func() *Device, tc TestCase) (simOut, behOut PortOutput, err error) {
	dev := newDevice()
	if err := p.Build(dev); err != nil {
		return nil, nil, fmt.Errorf("build: %w", err)
	}
	if tc.Configure != nil {
		if err := tc.Configure(dev); err != nil {
			return nil, nil, fmt.Errorf("configure: %w", err)
		}
	}
	settle := tc.Settle
	if settle == 0 {
		settle = Millisecond
	}
	simOut = RunSim(dev, tc.Vectors, settle)

	b := p.NewBehavioral()
	if tc.ConfigureBehavioral != nil {
		if err := tc.ConfigureBehavioral(b); err != nil {
			return nil, nil, fmt.Errorf("configure behavioral: %w", err)
		}
	}
	behOut = RunBehavioral(b, tc.Vectors)

	if diffs := Diff(simOut, behOut); len(diffs) > 0 {
		return simOut, behOut, fmt.Errorf("sim/behavioral divergence in %s: %v", tc.Name, diffs)
	}
	return simOut, behOut, nil
}
