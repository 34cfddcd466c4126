package experiments

import (
	"fmt"
	"strings"

	"repro/netfpga"
	"repro/netfpga/hw"
	"repro/netfpga/lib"
	"repro/netfpga/pkt"
	"repro/netfpga/projects"
	"repro/netfpga/projects/switchp"
	"repro/netfpga/sweep"
)

// t8aProjects is the utilization axis: every shipped project, in the
// paper table's order.
var t8aProjects = []string{
	"reference_nic", "reference_switch", "reference_router",
	"reference_iotest", "osnt", "blueswitch",
}

// t8bProjects/t8bBoards are the cross-platform fit matrix axes (iotest
// excluded as in the original table).
var (
	t8bProjects = []string{
		"reference_nic", "reference_switch", "reference_router", "osnt", "blueswitch",
	}
	t8bBoards = []string{"sume", "10g", "1g-cml"}
)

// defT8 reproduces the design-utilization comparison the paper says the
// common infrastructure enables ("users can compare design utilization
// and performance"), plus the module-reuse matrix that quantifies the
// building-block claim. One fleet device per project (utilization +
// reuse come from the same build) plus one per (board, project) fit
// cell.
func defT8() Def {
	synthSpec := sweep.Spec{
		Name:     "T8a",
		Projects: t8aProjects,
	}
	fitSpec := sweep.Spec{
		Name:     "T8b",
		Boards:   t8bBoards,
		Projects: t8bProjects,
		// The fit measure builds the project itself: a failed build is a
		// table cell ("build err"), not a device error.
		NoBuild: true,
	}

	synth := func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		dev := c.Dev
		rep, synthErr := dev.Dsn.Synthesize(dev.Board.FPGA)
		var names []string
		for _, m := range dev.Dsn.Modules() {
			names = append(names, m.Name())
		}
		var o sweep.Outcome
		o.Set("luts", float64(rep.Total.LUTs))
		o.Set("ffs", float64(rep.Total.FFs))
		o.Set("bram36", float64(rep.Total.BRAM36))
		o.Set("lut_pct", rep.Utilization()["LUT"])
		o.Set("ff_pct", rep.Utilization()["FF"])
		o.Set("bram_pct", rep.Utilization()["BRAM36"])
		o.SetBool("fits", synthErr == nil)
		o.Label("modules", strings.Join(names, ","))
		return o, nil
	}

	fit := func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		dev := c.Dev
		entry, ok := projects.ByName(cell.Project)
		if !ok {
			return sweep.Outcome{}, fmt.Errorf("unknown project %q", cell.Project)
		}
		var o sweep.Outcome
		if err := entry.New().Build(dev); err != nil {
			o.Label("fit", "build err")
			return o, nil
		}
		rep, err := dev.Dsn.Synthesize(dev.Board.FPGA)
		if err != nil {
			o.Label("fit", "over capacity")
			return o, nil
		}
		o.Set("lut_pct", rep.Utilization()["LUT"])
		o.Label("fit", pct(rep.Utilization()["LUT"])+" LUT")
		return o, nil
	}

	return Def{
		ID:    "T8",
		Title: "design utilization and module reuse across projects",
		Groups: []sweep.Group{
			{Spec: synthSpec, Measure: synth},
			{Spec: fitSpec, Measure: fit},
		},
		Render: renderT8,
	}
}

func renderT8(rs *sweep.Results) []*Table {
	util := &Table{
		ID:      "T8a",
		Title:   "post-synthesis utilization by project (NetFPGA-SUME)",
		Columns: []string{"project", "LUTs", "FFs", "BRAM36", "LUT%", "FF%", "BRAM%", "fits"},
	}
	synths := rs.Group(0)
	for _, s := range synths {
		fits := "yes"
		if s.V("fits") == 0 {
			fits = "NO"
		}
		util.AddRow(s.Cell.Project,
			fmt.Sprintf("%d", int(s.V("luts"))), fmt.Sprintf("%d", int(s.V("ffs"))),
			fmt.Sprintf("%d", int(s.V("bram36"))),
			pct(s.V("lut_pct")), pct(s.V("ff_pct")), pct(s.V("bram_pct")), fits)
		util.Metric(s.Cell.Project+"_lut_pct", s.V("lut_pct"))
	}
	util.Notes = append(util.Notes,
		"resource numbers are analytic estimates calibrated to published NetFPGA reference reports")

	fit := &Table{
		ID:      "T8b",
		Title:   "project fit across the three platforms",
		Columns: []string{"project", "SUME (V7-690T)", "10G (V5-TX240T)", "1G-CML (K7-325T)"},
	}
	for _, proj := range t8bProjects {
		row := []string{proj}
		for _, b := range t8bBoards {
			key := fmt.Sprintf("T8b/board=%s/project=%s", b, proj)
			res := rs.Get(key)
			if res == nil {
				panic("T8b cell missing: " + key)
			}
			if res.Err != "" {
				panic(fmt.Sprintf("T8b cell %s failed: %s", key, res.Err))
			}
			row = append(row, res.L("fit"))
		}
		fit.AddRow(row...)
	}

	// Module reuse matrix: which library blocks appear in which project
	// (from the same builds as T8a).
	reuse := &Table{
		ID:    "T8c",
		Title: "standard-module reuse across projects (the building-block claim, paper §3)",
	}
	classes := []string{"attach", "dma", "input_arbiter", "output_port_lookup",
		"output_queues", "timestamper", "monitor/generator"}
	reuse.Columns = append([]string{"project"}, classes...)
	classify := func(name string) string {
		switch {
		case strings.HasPrefix(name, "dma"):
			return "dma"
		case strings.Contains(name, ".attach"):
			return "attach"
		case name == "input_arbiter":
			return "input_arbiter"
		case strings.Contains(name, "lookup") || strings.Contains(name, "flow_table") || strings.Contains(name, "loopback"):
			return "output_port_lookup"
		case name == "output_queues":
			return "output_queues"
		case strings.Contains(name, "stamp"):
			return "timestamper"
		case strings.Contains(name, "monitor") || strings.Contains(name, "generator"):
			return "monitor/generator"
		}
		return ""
	}
	totalShared := 0
	for _, s := range synths {
		counts := map[string]int{}
		for _, name := range strings.Split(s.L("modules"), ",") {
			if c := classify(name); c != "" {
				counts[c]++
			}
		}
		row := []string{s.Cell.Project}
		for _, c := range classes {
			if counts[c] > 0 {
				row = append(row, fmt.Sprintf("%d", counts[c]))
				totalShared++
			} else {
				row = append(row, "-")
			}
		}
		reuse.AddRow(row...)
	}
	reuse.Metric("shared_block_uses", float64(totalShared))
	reuse.Notes = append(reuse.Notes,
		"every project is the same skeleton with a different decision stage — the modularity the paper demonstrates")
	return []*Table{util, fit, reuse}
}

// defF2 quantifies the rapid-prototyping claim: inserting a
// user-written firewall module into the reference switch changes only
// the inserted stage — utilization grows by the module's own cost and
// latency by its pipeline depth; behaviour elsewhere is untouched. The
// with- and without-firewall builds run as two cells of one axis.
func defF2() Def {
	spec := sweep.Spec{
		Name:   "F2",
		Params: []sweep.Axis{{Name: "firewall", Values: []string{"off", "on"}}},
	}
	measure := func(c *sweep.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		dev := c.Dev
		withFirewall := cell.Str("firewall") == "on"
		d := dev.Dsn
		cam := switchp.NewCAM(1024, 0)
		lookup := func(f *hw.Frame) lib.Verdict {
			var eth pkt.Ethernet
			if eth.DecodeFromBytes(f.Data) != nil {
				return lib.Drop
			}
			cam.Learn(eth.Src, f.Meta.SrcPort, int64(dev.Now()))
			if !eth.Dst.IsMulticast() {
				if port, ok := cam.Lookup(eth.Dst, int64(dev.Now())); ok {
					if port == f.Meta.SrcPort {
						return lib.Drop
					}
					f.Meta.DstPorts = hw.PortMask(int(port))
					return lib.Forward
				}
			}
			f.Meta.DstPorts = hw.AllPortsMask(4) &^ hw.PortMask(int(f.Meta.SrcPort))
			return lib.Forward
		}
		var ins []*hw.Stream
		outs := map[int]*hw.Stream{}
		for i, mac := range dev.MACs {
			rx := d.NewStream(fmt.Sprintf("rx%d", i), 16)
			tx := d.NewStream(fmt.Sprintf("tx%d", i), 16)
			lib.NewMACAttach(d, mac, i, rx, tx, 0)
			ins = append(ins, rx)
			outs[i] = tx
		}
		merged := d.NewStream("merged", 16)
		lib.NewInputArbiter(d, ins, merged)
		oplIn := merged
		if withFirewall {
			filtered := d.NewStream("filtered", 16)
			d.AddModule(&fwModule{in: merged, out: filtered, blocked: 0x86DD})
			oplIn = filtered
		}
		decided := d.NewStream("decided", 16)
		lib.NewOutputPortLookup(d, "switch_lookup", oplIn, decided, lookup, 2,
			hw.Resources{LUTs: 4100, FFs: 4600, BRAM36: 13}, nil)
		lib.NewOutputQueues(d, decided, outs, 0)
		rep, err := d.Synthesize(dev.Board.FPGA)
		if err != nil {
			return sweep.Outcome{}, err
		}

		for i := 0; i < 4; i++ {
			dev.Tap(i)
		}
		mk := func(ethType uint16) []byte {
			f, _ := pkt.Serialize(pkt.SerializeOptions{},
				&pkt.Ethernet{Dst: pkt.MustMAC("02:00:00:00:00:99"),
					Src: pkt.MustMAC("02:00:00:00:00:01"), EtherType: ethType},
				pkt.Payload(make([]byte, 46)))
			return f
		}
		start := dev.Now()
		dev.Tap(0).Send(mk(0x0800))
		dev.RunFor(netfpga.Millisecond)
		var lat netfpga.Time
		v4 := 0
		for i := 1; i < 4; i++ {
			for _, f := range dev.Tap(i).Received() {
				v4++
				if lat == 0 {
					lat = f.At - start
				}
			}
		}
		// The IPv6 probe is only counted, so the taps stop capturing.
		taps := countingTaps(dev, 4)
		taps[0].Send(mk(0x86DD))
		dev.RunFor(netfpga.Millisecond)
		v6, _ := tapCounts(taps[1:]...)
		var o sweep.Outcome
		o.Set("luts", float64(rep.Total.LUTs))
		o.Set("bram36", float64(rep.Total.BRAM36))
		o.SetTime("latency_ps", lat)
		o.Set("ipv4_fwd", float64(v4))
		o.Set("ipv6_fwd", float64(v6))
		return o, nil
	}
	return Def{
		ID:     "F2",
		Title:  "rapid prototyping: custom module insertion",
		Groups: []sweep.Group{{Spec: spec, Measure: measure}},
		Render: renderF2,
		Claims: []Claim{
			claim("delta_luts", func(v float64) bool { return v > 0 && v < 3000 },
				"rapid prototyping: a new module costs only itself", "the firewall's LUT delta must be small and positive"),
			claim("ipv6_blocked", func(v float64) bool { return v == 3 },
				"rapid prototyping: a new module costs only itself", "the firewall must block all 3 IPv6 flood copies"),
		},
	}
}

func renderF2(rs *sweep.Results) []*Table {
	t := &Table{
		ID:      "F2",
		Title:   "reference switch vs switch + user firewall module",
		Columns: []string{"design", "LUTs", "BRAM36", "64B latency", "IPv4 fwd", "IPv6 fwd"},
	}
	cells := rs.Group(0)
	base, fw := cells[0], cells[1]
	row := func(label string, r sweep.CellResult) {
		t.AddRow(label, fmt.Sprintf("%d", int(r.V("luts"))), fmt.Sprintf("%d", int(r.V("bram36"))),
			r.T("latency_ps").String(), fmt.Sprintf("%d", int(r.V("ipv4_fwd"))),
			fmt.Sprintf("%d", int(r.V("ipv6_fwd"))))
	}
	row("reference switch", base)
	row("+ user firewall", fw)
	dLUTs := int(fw.V("luts")) - int(base.V("luts"))
	dBRAM := int(fw.V("bram36")) - int(base.V("bram36"))
	dLat := fw.T("latency_ps") - base.T("latency_ps")
	t.AddRow("delta", fmt.Sprintf("%+d", dLUTs), fmt.Sprintf("%+d", dBRAM),
		dLat.String(),
		fmt.Sprintf("%+d", int(fw.V("ipv4_fwd"))-int(base.V("ipv4_fwd"))),
		fmt.Sprintf("%+d", int(fw.V("ipv6_fwd"))-int(base.V("ipv6_fwd"))))
	t.Metric("delta_luts", float64(dLUTs))
	t.Metric("delta_latency_ns", float64(dLat)/1e3)
	t.Metric("ipv6_blocked", base.V("ipv6_fwd")-fw.V("ipv6_fwd"))
	t.Notes = append(t.Notes,
		"the added module costs only its own logic (cut-through, no added latency); IPv4 behaviour is unchanged while IPv6 is now filtered")
	return []*Table{t}
}

// fwModule is the minimal user firewall used by F2 (cut-through,
// EtherType block list of one).
type fwModule struct {
	in, out  *hw.Stream
	blocked  uint16
	dropping bool
}

func (f *fwModule) Name() string            { return "user_firewall" }
func (f *fwModule) Resources() hw.Resources { return hw.Resources{LUTs: 650, FFs: 800} }
func (f *fwModule) Tick() bool {
	if !f.in.CanPop() {
		return false
	}
	if !f.out.CanPush() && !f.dropping {
		return true
	}
	b := f.in.Pop()
	if b.First() {
		data := b.Frame.Data
		f.dropping = len(data) >= 14 && uint16(data[12])<<8|uint16(data[13]) == f.blocked
	}
	if !f.dropping {
		f.out.Push(b)
	}
	if b.Last {
		f.dropping = false
	}
	return true
}
