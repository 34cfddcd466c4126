// nf-test is the unified test runner (the nf_test analogue of the
// physical platform): each project's test vectors are executed against
// the cycle-level design ("sim" target) and its twin (the "hw" target
// stand-in: the project's own stage decisions, applied frame by frame on
// a second instance, lib.Twin), and outputs must agree. Each project
// with a twin then runs its generated traffic (projects.TwinTests, the
// traffic FuzzTwin draws) on three fixed seeds, every port's frames in
// the twin's order. A project whose datapath holds a module with no
// decision (OSNT) runs sim-only assertions.
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
	"repro/netfpga/projects/nic"
	"repro/netfpga/projects/osnt"
	"repro/netfpga/projects/router"
	"repro/netfpga/projects/switchp"
)

func newDev() *netfpga.Device {
	return netfpga.NewDevice(netfpga.SUME(), netfpga.Options{})
}

// generatedSeeds are the seeds of the generated traffic each project
// with a twin runs after its hand-written vectors.
var generatedSeeds = []uint64{1, 2, 3}

// suite is one project's test set.
type suite struct {
	name string
	run  func() error
}

func main() {
	sel := flag.String("project", "", "run a single project's suite")
	flag.Parse()

	suites := []suite{
		{"reference_nic", nicSuite},
		{"reference_switch", switchSuite},
		{"reference_router", routerSuite},
		{"reference_iotest", iotestSuite},
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
		err := s.run()
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

func nicSuite() error {
	_, _, err := netfpga.RunUnified(func() netfpga.Project { return nic.New() }, newDev, netfpga.TestCase{
		Name: "nic_bridging",
		Vectors: []netfpga.TestVector{
			{Port: 0, Data: payload(64, 1)},
			{Port: 3, Data: payload(1514, 2)},
			{Port: netfpga.HostPort(1), Data: payload(256, 3)},
			{Port: netfpga.HostPort(2), Data: payload(900, 4)},
		},
	})
	return err
}

func switchSuite() error {
	mac := func(i byte) pkt.MAC { return pkt.MAC{2, 0, 0, 0, 0, i} }
	eth := func(dst, src pkt.MAC, tag byte) []byte {
		f, _ := pkt.Serialize(pkt.SerializeOptions{},
			&pkt.Ethernet{Dst: dst, Src: src, EtherType: 0x88B5},
			pkt.Payload(payload(50, tag)))
		return f
	}
	_, _, err := netfpga.RunUnified(func() netfpga.Project { return switchp.New(switchp.Config{}) }, newDev, netfpga.TestCase{
		Name: "switch_learning_and_flooding",
		Vectors: []netfpga.TestVector{
			{Port: 0, Data: eth(mac(2), mac(1), 1)},
			{Port: 1, Data: eth(mac(1), mac(2), 2), At: 300 * netfpga.Microsecond},
			{Port: 0, Data: eth(mac(2), mac(1), 3), At: 600 * netfpga.Microsecond},
			{Port: 3, Data: eth(pkt.BroadcastMAC, mac(4), 4), At: 900 * netfpga.Microsecond},
		},
	})
	return err
}

func routerSuite() error {
	ifs := router.DefaultInterfaces(4)
	hostMAC := pkt.MustMAC("02:aa:00:00:00:01")
	hostIP := pkt.MustIP4("10.0.0.2")
	peerIP := pkt.MustIP4("10.0.1.2")
	peerMAC := pkt.MustMAC("02:bb:00:00:00:01")

	seed := func(p netfpga.Project, _ *netfpga.Device) error {
		r := p.(*router.Project)
		for i := 0; i < 4; i++ {
			r.AddRoute(router.Route{
				Prefix: pkt.Prefix{Addr: pkt.IP4{10, 0, byte(i), 0}, Bits: 24},
				Port:   uint8(i),
			})
		}
		r.AddARP(hostIP, hostMAC)
		r.AddARP(peerIP, peerMAC)
		return nil
	}
	fwd, _ := pkt.BuildUDP(pkt.UDPSpec{
		SrcMAC: hostMAC, DstMAC: ifs[0].MAC, SrcIP: hostIP, DstIP: peerIP,
		SrcPort: 1, DstPort: 2, Payload: payload(64, 5)})
	expired, _ := pkt.BuildUDP(pkt.UDPSpec{
		SrcMAC: hostMAC, DstMAC: ifs[0].MAC, SrcIP: hostIP, DstIP: peerIP,
		SrcPort: 1, DstPort: 2, TTL: 1})
	echo, _ := pkt.BuildICMPEcho(hostMAC, ifs[0].MAC, hostIP, ifs[0].IP, 9, 1, false, nil)

	_, _, err := netfpga.RunUnified(func() netfpga.Project { return router.New(router.Config{}) }, newDev, netfpga.TestCase{
		Name: "router_paths",
		Vectors: []netfpga.TestVector{
			{Port: 0, Data: pkt.PadToMin(fwd)},
			{Port: 0, Data: pkt.PadToMin(expired), At: 300 * netfpga.Microsecond},
			{Port: 0, Data: pkt.PadToMin(echo), At: 600 * netfpga.Microsecond},
		},
		Configure: seed,
	})
	return err
}

func iotestSuite() error {
	if _, _, err := netfpga.RunUnified(func() netfpga.Project { return iotest.New() }, newDev, netfpga.TestCase{
		Name: "iotest_loopback",
		Vectors: []netfpga.TestVector{
			{Port: 0, Data: payload(64, 1)},
			{Port: 2, Data: payload(777, 2)},
			{Port: netfpga.HostPort(3), Data: payload(128, 3)},
		},
	}); err != nil {
		return err
	}
	// Full self-test (ports, DMA, memories, storage).
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
