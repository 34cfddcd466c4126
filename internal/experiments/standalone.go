package experiments

import (
	"fmt"

	"repro/internal/storage"
	"repro/netfpga"
	"repro/netfpga/fleet"
	"repro/netfpga/projects/iotest"
	"repro/netfpga/sweep"
)

var t9Devices = []string{"microsd", "sata0"}

// defT9 exercises the SUME standalone-operation claim: the board boots
// its project image from local storage with no PCIe host attached, then
// passes traffic. Boot time is dominated by the storage device, so the
// MicroSD and SATA paths differ measurably. Each boot device is one
// host-less fleet cell.
func defT9() Def {
	spec := sweep.Spec{
		Name:   "T9",
		NoHost: true,
		Params: []sweep.Axis{{Name: "bootdev", Values: t9Devices}},
	}
	measure := func(c *fleet.Ctx, cell sweep.Cell) (sweep.Outcome, error) {
		dev := c.Dev
		devName := cell.Str("bootdev")
		if dev.Driver != nil {
			return sweep.Outcome{}, fmt.Errorf("standalone device should have no driver")
		}
		var disk *storage.BlockDev
		for _, d := range dev.Disks {
			if d.Name() == devName {
				disk = d
			}
		}
		if disk == nil {
			return sweep.Outcome{}, fmt.Errorf("board has no storage device %q", devName)
		}
		// "Flash" the project image: a stand-in bitstream payload whose
		// integrity the boot path checks.
		image := make([]byte, 512<<10) // 512 KB partial-bitstream-sized image
		for i := range image {
			image[i] = byte(i * 13)
		}
		storage.WriteImage(disk, 2048, image, nil)
		dev.RunUntilIdle(0)

		// Boot: load + verify the image, then build the project.
		bootStart := dev.Now()
		var loaded []byte
		var loadErr error
		storage.LoadImage(disk, 2048, len(image), func(b []byte, err error) {
			loaded, loadErr = b, err
		})
		dev.RunUntilIdle(0)
		bootTime := dev.Now() - bootStart
		imageOK := loadErr == nil && len(loaded) == len(image)

		p := iotest.New()
		if err := p.Build(dev); err != nil {
			return sweep.Outcome{}, err
		}
		// Traffic without any host: wire in, wire out.
		tap := dev.Tap(0)
		tap.SetCounting(true)
		for i := 0; i < 50; i++ {
			tap.Send(make([]byte, 200))
		}
		dev.RunFor(2 * netfpga.Millisecond)
		rx, _ := tap.Counts()
		trafficOK := rx == 50
		var o sweep.Outcome
		o.Set("image_kb", float64(len(image)>>10))
		o.SetTime("boot_ps", bootTime)
		o.SetBool("image_ok", imageOK)
		o.SetBool("traffic_ok", trafficOK)
		return o, nil
	}
	return Def{
		ID:     "T9",
		Title:  "standalone operation: boot from storage",
		Groups: []sweep.Group{{Spec: spec, Measure: measure}},
		Render: renderT9,
	}
}

func renderT9(rs *sweep.Results) []*Table {
	t := &Table{
		ID:      "T9",
		Title:   "standalone boot from on-board storage (no PCIe host)",
		Columns: []string{"boot device", "image size", "boot time", "image ok", "traffic ok"},
	}
	for _, res := range rs.Group(0) {
		devName := res.Cell.Str("bootdev")
		bootTime := res.T("boot_ps")
		t.AddRow(devName, fmt.Sprintf("%d KB", int(res.V("image_kb"))), bootTime.String(),
			fmt.Sprintf("%v", res.V("image_ok") == 1), fmt.Sprintf("%v", res.V("traffic_ok") == 1))
		t.Metric(devName+"_boot_ms", float64(bootTime)/float64(netfpga.Millisecond))
		if res.V("image_ok") != 1 || res.V("traffic_ok") != 1 {
			t.Metric(devName+"_failed", 1)
		}
	}
	t.Notes = append(t.Notes,
		"boot time is storage-bound: SATA SSD loads the image an order of magnitude faster than MicroSD")
	return []*Table{t}
}
