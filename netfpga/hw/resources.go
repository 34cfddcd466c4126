package hw

import (
	"fmt"
	"sort"
	"strings"
)

// Resources is an analytic estimate of the FPGA fabric a module consumes.
// The numbers are calibrated against published NetFPGA reference-design
// synthesis reports; they exist so users can compare design utilization
// across projects, as the paper describes — not to be gate-accurate.
type Resources struct {
	LUTs   int // 6-input look-up tables
	FFs    int // flip-flops
	BRAM36 int // 36Kb block RAMs
	DSPs   int // DSP48 slices
}

// Add returns the element-wise sum r + o.
func (r Resources) Add(o Resources) Resources {
	return Resources{r.LUTs + o.LUTs, r.FFs + o.FFs, r.BRAM36 + o.BRAM36, r.DSPs + o.DSPs}
}

// FitsIn reports whether r fits within capacity c.
func (r Resources) FitsIn(c Resources) bool {
	return r.LUTs <= c.LUTs && r.FFs <= c.FFs && r.BRAM36 <= c.BRAM36 && r.DSPs <= c.DSPs
}

// BRAMForBytes returns the number of BRAM36 blocks needed to hold n bytes
// (a 36Kb BRAM stores 4KiB of payload data).
func BRAMForBytes(n int) int {
	const bramBytes = 4096
	return (n + bramBytes - 1) / bramBytes
}

// FPGA describes a target device's capacity.
type FPGA struct {
	Name      string
	Capacity  Resources
	Serial    int     // available high-speed serial links
	SerialGbs float64 // per-link maximum rate, Gb/s
}

// Known NetFPGA target devices.
var (
	// Virtex7_690T is the SUME device (XC7VX690T).
	Virtex7_690T = FPGA{
		Name:      "Xilinx Virtex-7 XC7VX690T",
		Capacity:  Resources{LUTs: 433200, FFs: 866400, BRAM36: 1470, DSPs: 3600},
		Serial:    30,
		SerialGbs: 13.1,
	}
	// Virtex5_TX240T is the NetFPGA-10G device.
	Virtex5_TX240T = FPGA{
		Name:      "Xilinx Virtex-5 TX240T",
		Capacity:  Resources{LUTs: 149760, FFs: 149760, BRAM36: 324, DSPs: 96},
		Serial:    20,
		SerialGbs: 6.5,
	}
	// Kintex7_325T is the NetFPGA-1G-CML device.
	Kintex7_325T = FPGA{
		Name:      "Xilinx Kintex-7 XC7K325T",
		Capacity:  Resources{LUTs: 203800, FFs: 407600, BRAM36: 445, DSPs: 840},
		Serial:    8,
		SerialGbs: 10.3,
	}
)

// ModuleUsage is one row of a utilization report.
type ModuleUsage struct {
	Module string
	Res    Resources
}

// Report is the result of synthesizing a design against a device: the
// software analogue of a post-synthesis utilization report.
type Report struct {
	Design    string
	Device    FPGA
	ClockMHz  float64
	FmaxMHz   float64 // slowest module's declared Fmax; 0 if unconstrained
	Total     Resources
	PerModule []ModuleUsage
}

// Utilization returns the percentage of the device consumed per resource
// class, keyed by class name.
func (r *Report) Utilization() map[string]float64 {
	pct := func(used, avail int) float64 {
		if avail == 0 {
			return 0
		}
		return 100 * float64(used) / float64(avail)
	}
	c := r.Device.Capacity
	return map[string]float64{
		"LUT":    pct(r.Total.LUTs, c.LUTs),
		"FF":     pct(r.Total.FFs, c.FFs),
		"BRAM36": pct(r.Total.BRAM36, c.BRAM36),
		"DSP":    pct(r.Total.DSPs, c.DSPs),
	}
}

// String renders the report as an aligned table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %s on %s (clock %.1f MHz)\n", r.Design, r.Device.Name, r.ClockMHz)
	fmt.Fprintf(&b, "%-28s %9s %9s %7s %5s\n", "module", "LUTs", "FFs", "BRAM36", "DSPs")
	rows := make([]ModuleUsage, len(r.PerModule))
	copy(rows, r.PerModule)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Res.LUTs > rows[j].Res.LUTs })
	for _, m := range rows {
		fmt.Fprintf(&b, "%-28s %9d %9d %7d %5d\n", m.Module, m.Res.LUTs, m.Res.FFs, m.Res.BRAM36, m.Res.DSPs)
	}
	fmt.Fprintf(&b, "%-28s %9d %9d %7d %5d\n", "TOTAL", r.Total.LUTs, r.Total.FFs, r.Total.BRAM36, r.Total.DSPs)
	u := r.Utilization()
	fmt.Fprintf(&b, "%-28s %8.1f%% %8.1f%% %6.1f%% %4.1f%%\n", "utilization", u["LUT"], u["FF"], u["BRAM36"], u["DSP"])
	if r.FmaxMHz > 0 {
		fmt.Fprintf(&b, "estimated Fmax %.1f MHz\n", r.FmaxMHz)
	}
	return b.String()
}
