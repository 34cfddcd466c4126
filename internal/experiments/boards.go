package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/netfpga/sweep"
)

// defF1 reproduces Figure 1 and §1-2 of the paper as data: the SUME
// board's subsystem inventory and the three-platform comparison. The
// sweep has one NoDevice cell per platform; each cell tabulates its
// board's static capabilities.
func defF1() Def {
	spec := sweep.Spec{
		Name:     "F1",
		NoDevice: true,
		Params: []sweep.Axis{
			{Name: "board", Values: []string{"sume", "10g", "1g-cml"}},
		},
	}
	measure := func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		b, ok := sweep.Board(cell.Str("board"))
		if !ok {
			return sweep.Outcome{}, fmt.Errorf("unknown board %q", cell.Str("board"))
		}
		var sram, dram uint64
		for _, s := range b.SRAM {
			sram += s.Size
		}
		for _, d := range b.DRAM {
			dram += d.Size
		}
		var o sweep.Outcome
		o.Label("name", b.Name)
		o.Label("fpga", b.FPGA.Name)
		o.Set("ports", float64(b.Ports))
		o.Set("port_gbps", b.PortRate(0))
		o.Set("aggregate_gbps", b.TotalPortGbps())
		o.Set("pcie_gen", float64(b.PCIe.Gen))
		o.Set("pcie_lanes", float64(b.PCIe.Lanes))
		o.Set("sram_mb", float64(sram>>20))
		o.Set("dram_bytes", float64(dram))
		o.Set("storage_devices", float64(len(b.Storage)))
		o.SetBool("standalone", b.Standalone)
		return o, nil
	}
	return Def{
		ID:     "F1",
		Title:  "board inventory and platform comparison",
		Groups: []sweep.Group{{Spec: spec, Measure: measure}},
		Render: renderF1,
	}
}

func renderF1(rs *sweep.Results) []*Table {
	cmp := &Table{
		ID:    "F1a",
		Title: "the three NetFPGA platforms (paper §1)",
		Columns: []string{"board", "FPGA", "ports", "aggregate", "PCIe",
			"SRAM", "DRAM", "storage", "standalone"},
	}
	for _, res := range rs.Group(0) {
		standalone := "no"
		if res.V("standalone") == 1 {
			standalone = "yes"
		}
		cmp.AddRow(res.L("name"), res.L("fpga"),
			fmt.Sprintf("%dx%.0fG", int(res.V("ports")), res.V("port_gbps")),
			fmt.Sprintf("%.0f Gb/s", res.V("aggregate_gbps")),
			fmt.Sprintf("Gen%d x%d", int(res.V("pcie_gen")), int(res.V("pcie_lanes"))),
			fmt.Sprintf("%d MB", uint64(res.V("sram_mb"))),
			fmt.Sprintf("%.1f GB", res.V("dram_bytes")/(1<<30)),
			fmt.Sprintf("%d devices", int(res.V("storage_devices"))),
			standalone)
	}

	sume := core.SUME()
	inv := &Table{
		ID:      "F1b",
		Title:   "NetFPGA SUME subsystem inventory (paper §2, Figure 1)",
		Columns: []string{"subsystem", "component", "capability"},
	}
	inv.AddRow("FPGA", sume.FPGA.Name,
		fmt.Sprintf("%d LUTs, %d FFs, %d BRAM36, %d DSPs",
			sume.FPGA.Capacity.LUTs, sume.FPGA.Capacity.FFs,
			sume.FPGA.Capacity.BRAM36, sume.FPGA.Capacity.DSPs))
	inv.AddRow("serial I/O", fmt.Sprintf("%d links", sume.FPGA.Serial),
		fmt.Sprintf("up to %.1f Gb/s each; SFP+ / 40G / 100G bonding", sume.FPGA.SerialGbs))
	for _, s := range sume.SRAM {
		inv.AddRow("memory", s.Name,
			fmt.Sprintf("QDRII+ %d MB @ %.0f MHz", s.Size>>20, s.ClockMHz))
	}
	for _, d := range sume.DRAM {
		inv.AddRow("memory", d.Name,
			fmt.Sprintf("DDR3 SoDIMM %d GB @ %.0f MT/s", d.Size>>30, d.MTps))
	}
	inv.AddRow("host", "PCIe", fmt.Sprintf("Gen%d x%d", sume.PCIe.Gen, sume.PCIe.Lanes))
	for _, st := range sume.Storage {
		inv.AddRow("storage", st.Name,
			fmt.Sprintf("%d GB block device", uint64(st.BlockSize)*st.Blocks>>30))
	}
	serialAgg := float64(sume.FPGA.Serial) * sume.FPGA.SerialGbs
	cmp.Metric("sume_serial_aggregate_gbps", serialAgg)
	cmp.Notes = append(cmp.Notes, fmt.Sprintf(
		"SUME serial aggregate %.0f Gb/s across %d links enables 100G applications (paper claim)",
		serialAgg, sume.FPGA.Serial))
	return []*Table{cmp, inv}
}
