package blueswitch

import (
	"strings"
	"testing"

	"repro/netfpga"
)

func newSUME() *netfpga.Device { return netfpga.NewDevice(netfpga.SUME(), netfpga.Options{}) }

func newVersioned() netfpga.Project { return New(Config{Mode: Versioned}) }

// install is a TestCase.Configure loading pol as the initial policy.
func install(pol Policy) func(netfpga.Project, *netfpga.Device) error {
	return func(p netfpga.Project, _ *netfpga.Device) error { return p.(*Project).InstallInitial(pol) }
}

// TestBehavioralMatchesPolicy: on BlueSwitch's datapath, a matched
// EtherType leaves by the policy's port and an unmatched one drops —
// and the twin agrees.
func TestBehavioralMatchesPolicy(t *testing.T) {
	simOut, _, err := netfpga.RunUnified(newVersioned, newSUME, netfpga.TestCase{
		Name: "policy",
		Vectors: []netfpga.TestVector{
			{Port: 0, Data: frame(0x0800, 1)},
			{Port: 0, Data: frame(0x86DD, 2), At: 100 * netfpga.Microsecond},
		},
		Configure: install(TagForwardPolicy(0x0800, 1, 2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(simOut) != 1 || len(simOut[2]) != 1 || simOut[2][0][20] != 1 {
		t.Fatalf("sim output %v, want the IPv4 frame on port 2 and nothing else", simOut)
	}
}

// TestBehavioralPolicySizeMismatch: a policy the project refuses fails
// the unified run at configuration.
func TestBehavioralPolicySizeMismatch(t *testing.T) {
	_, _, err := netfpga.RunUnified(newVersioned, newSUME, netfpga.TestCase{
		Name:      "short",
		Configure: install(Policy{{}}),
	})
	if err == nil || !strings.Contains(err.Error(), "configure") {
		t.Fatalf("short policy: err = %v", err)
	}
}

func TestUnifiedSimVsBehavioral(t *testing.T) {
	vectors := []netfpga.TestVector{
		{Port: 0, Data: frame(0x0800, 0)},
		{Port: 2, Data: frame(0x0800, 0), At: 200 * netfpga.Microsecond},
		{Port: 1, Data: frame(0x86DD, 0), At: 400 * netfpga.Microsecond},
	}
	_, _, err := netfpga.RunUnified(newVersioned, newSUME, netfpga.TestCase{
		Name:      "blueswitch_match_action",
		Vectors:   vectors,
		Configure: install(TagForwardPolicy(0x0800, 1, 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
}
