// nf-test is the unified test runner (the nf_test analogue of the
// physical platform). Each project with a twin runs its generated
// traffic (projects.TwinTests, the traffic FuzzTwin draws) on three
// fixed seeds against the cycle-level design ("sim" target) and its twin
// (the "hw" target stand-in: the project's own stage decisions, applied
// frame by frame on a second instance, lib.Twin); every port must
// receive the twin's frames in the twin's order. A project adds
// hand-written checks only where that traffic has no counterpart:
// BlueSwitch's update consistency and the iotest self-test. A project
// whose datapath holds a module with no decision (OSNT) runs sim-only
// assertions.
//
//	nf-test              # all projects
//	nf-test -project reference_router
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/pkt"
	"repro/netfpga/projects"
	"repro/netfpga/projects/blueswitch"
	"repro/netfpga/projects/iotest"
	"repro/netfpga/projects/osnt"
)

func newDev() *netfpga.Device {
	return netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
}

// generatedSeeds are the seeds of the generated traffic each project
// with a twin runs after its hand-written checks.
var generatedSeeds = []uint64{1, 2, 3}

// suite is one project's test set: its hand-written checks, if any,
// then its generated traffic.
type suite struct {
	name string
	run  func() error
}

func main() {
	sel := flag.String("project", "", "run a single project's suite")
	flag.Parse()

	suites := []suite{
		{"reference_nic", nil},
		{"reference_switch", nil},
		{"reference_router", nil},
		{"reference_iotest", iotestSelfTest},
		{"osnt", osntSuite},
		{"blueswitch", blueswitchSuite},
	}
	generated := map[string]projects.TwinTest{}
	for _, t := range projects.TwinTests() {
		generated[t.Name] = t
	}
	failed := 0
	for _, s := range suites {
		if *sel != "" && s.name != *sel {
			continue
		}
		var err error
		if s.run != nil {
			err = s.run()
		}
		if t, ok := generated[s.name]; ok && err == nil {
			for _, seed := range generatedSeeds {
				if err = t.Run(netfpga.SUME(), seed); err != nil {
					break
				}
			}
		}
		status := "PASS"
		if err != nil {
			status = "FAIL: " + err.Error()
			failed++
		}
		fmt.Printf("%-18s %s\n", s.name, status)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func payload(n int, tag byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag
	}
	return b
}

// iotestSelfTest runs the full self-test (ports, DMA, memories,
// storage).
func iotestSelfTest() error {
	dev := newDev()
	p2 := iotest.New()
	if err := p2.Build(dev); err != nil {
		return err
	}
	rep := p2.RunSelfTest(dev)
	if !rep.Pass() {
		return fmt.Errorf("self-test failed:\n%s", rep)
	}
	return nil
}

func osntSuite() error {
	// Sim-only: closed loop gen->DUT->mon, assert counts and latency
	// sanity.
	dev := newDev()
	p := osnt.New()
	if err := p.Build(dev); err != nil {
		return err
	}
	tap0, tap1 := dev.Tap(0), dev.Tap(1)
	tap0.OnRx = func(f *hw.Frame, at netfpga.Time) { tap1.Send(f.Data) }
	tester := p.Instance()
	if err := tester.Configure(0, osnt.TrafficSpec{
		Template: payload(300, 9), Count: 100, Mode: osnt.CBR, RateMbps: 1000, Stamp: true,
	}); err != nil {
		return err
	}
	tester.Start(0)
	dev.RunFor(5 * netfpga.Millisecond)
	st := tester.Stats(1)
	if st.Pkts != 100 || st.LatSamples != 100 {
		return fmt.Errorf("monitor saw %d pkts / %d samples, want 100/100", st.Pkts, st.LatSamples)
	}
	return nil
}

func blueswitchSuite() error {
	// Both instances, the sim's and the twin's, must see no mixed
	// policy.
	var insts []*blueswitch.Project
	newProject := func() netfpga.Project {
		p := blueswitch.New(blueswitch.Config{Mode: blueswitch.Versioned})
		insts = append(insts, p)
		return p
	}
	f := func(ethType uint16, tag byte) []byte {
		b, _ := pkt.Serialize(pkt.SerializeOptions{},
			&pkt.Ethernet{Dst: pkt.MustMAC("02:00:00:00:00:02"),
				Src: pkt.MustMAC("02:00:00:00:00:01"), EtherType: ethType},
			pkt.Payload(payload(46, tag)))
		return b
	}
	simOut, _, err := netfpga.RunUnified(newProject, newDev, netfpga.TestCase{
		Name: "blueswitch_match_action",
		Vectors: []netfpga.TestVector{
			{Port: 0, Data: f(0x0800, 1)},
			{Port: 2, Data: f(0x0800, 2), At: 200 * netfpga.Microsecond},
			{Port: 3, Data: f(0x86DD, 3), At: 400 * netfpga.Microsecond},
		},
		Configure: func(p netfpga.Project, _ *netfpga.Device) error {
			return p.(*blueswitch.Project).InstallInitial(blueswitch.TagForwardPolicy(0x0800, 1, 1))
		},
	})
	if err != nil {
		return err
	}
	if len(simOut[1]) != 2 {
		return fmt.Errorf("match-action forwarding failed: port 1 got %d of 2 IPv4 frames", len(simOut[1]))
	}
	for _, p := range insts {
		if p.Violations() != 0 {
			return fmt.Errorf("spurious violations")
		}
	}
	return nil
}
