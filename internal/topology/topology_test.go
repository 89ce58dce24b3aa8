package topology

import (
	"math"
	"testing"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDefaultConfigShape(t *testing.T) {
	c := New(DefaultConfig(2))
	if got := len(c.LinksOfClass(fabric.NVLink, 0)); got != 6 {
		t.Errorf("NVLink pairs on node 0 = %d, want 6", got)
	}
	if got := len(c.LinksOfClass(fabric.PCIeGPU, 0)); got != 4 {
		t.Errorf("PCIe-GPU links = %d, want 4", got)
	}
	if got := len(c.LinksOfClass(fabric.RoCE, -1)); got != 4 {
		t.Errorf("RoCE links total = %d, want 4", got)
	}
	if got := len(c.LinksOfClass(fabric.PCIeNVME, 0)); got != 2 {
		t.Errorf("NVMe links on node 0 = %d, want 2 (two scratch drives)", got)
	}
	if got := len(c.LinksOfClass(fabric.DRAM, 0)); got != 2 {
		t.Errorf("DRAM socket links = %d, want 2", got)
	}
}

func TestTableIIICapacities(t *testing.T) {
	c := New(DefaultConfig(1))
	cases := []struct {
		link *fabric.Link
		want float64
	}{
		{c.DRAMLink(0, 0), 25.6e9 * 8},
		{c.XGMILink(0), 72e9 * 3},
		{c.PCIeGPULink(GPU{0, 0}), 64e9},
		{c.PCIeNICLink(NIC{0, 1}), 64e9},
		{c.RoCELink(NIC{0, 0}), 50e9},
		{c.NVLinkPair(GPU{0, 0}, GPU{0, 3}), 200e9},
		{c.NVMeLink(DriveSpec{0, 1, 0}), 16e9},
	}
	for _, cse := range cases {
		if !almost(cse.link.Capacity(), cse.want, 1) {
			t.Errorf("%s capacity = %v, want %v", cse.link.Name, cse.link.Capacity(), cse.want)
		}
	}
}

func TestTheoreticalClassBW(t *testing.T) {
	c := New(DefaultConfig(1))
	cases := map[fabric.Class]float64{
		fabric.DRAM:     409.6e9,
		fabric.XGMI:     216e9,
		fabric.PCIeGPU:  256e9,
		fabric.PCIeNIC:  128e9,
		fabric.PCIeNVME: 128e9,
		fabric.NVLink:   2400e9,
		fabric.RoCE:     100e9,
	}
	for class, want := range cases {
		if got := c.TheoreticalClassBW(class); !almost(got, want, 1) {
			t.Errorf("theoretical %v = %v, want %v", class, got, want)
		}
	}
}

func TestGPUSocketAssignment(t *testing.T) {
	// Fig 2-b: GPUs 0,1 on socket 0; GPUs 2,3 on socket 1.
	for idx, want := range []int{0, 0, 1, 1} {
		if got := (GPU{0, idx}).Socket(); got != want {
			t.Errorf("GPU %d socket = %d, want %d", idx, got, want)
		}
	}
}

func hasClass(r Route, class fabric.Class) int {
	n := 0
	for _, l := range r.Links {
		if l.Class == class {
			n++
		}
	}
	return n
}

func TestGPUToNICSameSocketCrossesOneXbar(t *testing.T) {
	c := New(DefaultConfig(1))
	r := c.GPUToNIC(GPU{0, 0}, NIC{0, 0})
	if hasClass(r, fabric.IODXbar) != 1 {
		t.Errorf("same-socket GPU→NIC crossbars = %d, want 1 (PCIe↔PCIe is SerDes-to-SerDes)", hasClass(r, fabric.IODXbar))
	}
	if hasClass(r, fabric.XGMI) != 0 {
		t.Error("same-socket GPU→NIC should not cross xGMI")
	}
}

func TestGPUToNICCrossSocketCrossesTwoXbars(t *testing.T) {
	c := New(DefaultConfig(1))
	r := c.GPUToNIC(GPU{0, 0}, NIC{0, 1})
	if hasClass(r, fabric.IODXbar) != 2 {
		t.Errorf("cross-socket GPU→NIC crossbars = %d, want 2", hasClass(r, fabric.IODXbar))
	}
	if hasClass(r, fabric.XGMI) != 1 {
		t.Error("cross-socket GPU→NIC must cross xGMI")
	}
}

func TestCPUToNICSameSocketAvoidsXbar(t *testing.T) {
	c := New(DefaultConfig(1))
	r := c.CPUToNIC(0, 0, NIC{0, 0})
	if hasClass(r, fabric.IODXbar) != 0 {
		t.Error("DRAM→PCIe same socket must not pay the crossbar (paper Sec III-C4)")
	}
}

func TestCPUToNICCrossSocketPaysOneXbar(t *testing.T) {
	c := New(DefaultConfig(1))
	r := c.CPUToNIC(0, 0, NIC{0, 1})
	if hasClass(r, fabric.IODXbar) != 1 {
		t.Errorf("cross-socket CPU→NIC crossbars = %d, want 1 (xGMI→PCIe at NIC socket)", hasClass(r, fabric.IODXbar))
	}
}

func TestGPUToCPURoutes(t *testing.T) {
	c := New(DefaultConfig(1))
	same := c.GPUToCPU(GPU{0, 0}, 0)
	if hasClass(same, fabric.IODXbar) != 0 || hasClass(same, fabric.DRAM) != 1 {
		t.Error("same-socket GPU→CPU should be PCIe+DRAM only")
	}
	cross := c.GPUToCPU(GPU{0, 0}, 1)
	if hasClass(cross, fabric.IODXbar) != 1 || hasClass(cross, fabric.XGMI) != 1 {
		t.Error("cross-socket GPU→CPU should pay one crossbar and xGMI")
	}
}

func TestInterNodeConsumesBothNICs(t *testing.T) {
	c := New(DefaultConfig(2))
	r := c.InterNode(NIC{0, 0}, NIC{1, 0})
	if hasClass(r, fabric.RoCE) != 2 {
		t.Errorf("inter-node RoCE legs = %d, want 2", hasClass(r, fabric.RoCE))
	}
}

func TestGPUToRemoteGPUFullPath(t *testing.T) {
	c := New(DefaultConfig(2))
	r := c.GPUToRemoteGPU(GPU{0, 0}, GPU{1, 2})
	if hasClass(r, fabric.PCIeGPU) != 2 || hasClass(r, fabric.PCIeNIC) != 2 ||
		hasClass(r, fabric.RoCE) != 2 {
		t.Errorf("remote GPU path composition wrong: %v", r.Links)
	}
	// Each side is same-socket GPU→NIC? GPU{0,0} socket 0 → NIC socket 0 (1 xbar);
	// GPU{1,2} socket 1 → NIC socket 1 (1 xbar).
	if hasClass(r, fabric.IODXbar) != 2 {
		t.Errorf("remote GPU path crossbars = %d, want 2", hasClass(r, fabric.IODXbar))
	}
}

func TestCrossSocketLatencyMuchHigher(t *testing.T) {
	c := New(DefaultConfig(1))
	same := c.CPUToNIC(0, 0, NIC{0, 0}).Latency
	cross := c.CPUToNIC(0, 0, NIC{0, 1}).Latency
	if ratio := float64(cross) / float64(same); ratio < 3 {
		t.Errorf("cross/same latency ratio = %.1f, want >3 (paper sees ~7x)", ratio)
	}
}

func TestConcatDeduplicatesLinks(t *testing.T) {
	c := New(DefaultConfig(1))
	a := c.GPUToCPU(GPU{0, 2}, 1)
	b := c.CPUToNVMe(0, 1, DriveSpec{0, 1, 0})
	j := Concat(a, b)
	seen := make(map[string]bool)
	for _, l := range j.Links {
		if seen[l.Name] {
			t.Errorf("duplicate link %s in concatenated route", l.Name)
		}
		seen[l.Name] = true
	}
	if j.Latency != a.Latency+b.Latency {
		t.Error("Concat should sum latencies")
	}
}

func TestClassSeriesAggregatesAcrossLinks(t *testing.T) {
	c := New(DefaultConfig(1))
	// Two flows on two different NVLink pairs, 1 GB each over 1 s.
	done := 0
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		l := c.NVLinkPair(GPU{0, pair[0]}, GPU{0, pair[1]})
		c.Net.StartFlow(&fabric.Flow{Path: []*fabric.Link{l}, Bytes: 200e9}, func() { done++ })
	}
	c.Eng.Run()
	c.Net.Quiesce()
	if done != 2 {
		t.Fatalf("flows done = %d", done)
	}
	end := c.Eng.Now()
	st := c.ClassStats(fabric.NVLink, 0, 0, end)
	// Each pair moved 200 GB in 1 s at weight 2 -> 400 GB/s counted each,
	// 800 GB/s aggregate.
	if !almost(st.Avg, 800e9, 1e9) {
		t.Errorf("aggregate NVLink avg = %v, want ~800e9", st.Avg)
	}
}

func TestMeasurementRangeExcludesWarmup(t *testing.T) {
	c := New(DefaultConfig(1))
	l := c.NVLinkPair(GPU{0, 0}, GPU{0, 1})
	// Warm-up burst in the first second, silence afterwards.
	c.Net.StartFlow(&fabric.Flow{Path: []*fabric.Link{l}, Bytes: 200e9}, nil)
	c.Eng.Run()
	c.Eng.ScheduleAt(2*sim.Second, func() {})
	c.Eng.Run()
	st := c.ClassStats(fabric.NVLink, 0, sim.Second, 2*sim.Second)
	if st.Avg != 0 {
		t.Errorf("post-warmup avg = %v, want 0", st.Avg)
	}
	st = c.ClassStats(fabric.NVLink, 0, 0, sim.Second)
	if st.Avg == 0 {
		t.Error("warmup window should show traffic")
	}
}

func TestInvalidRoutesPanic(t *testing.T) {
	c := New(DefaultConfig(2))
	for name, fn := range map[string]func(){
		"gpu to nic across nodes": func() { c.GPUToNIC(GPU{0, 0}, NIC{1, 0}) },
		"nvlink across nodes":     func() { c.NVLinkPair(GPU{0, 0}, GPU{1, 0}) },
		"nvlink to self":          func() { c.NVLinkPair(GPU{0, 1}, GPU{0, 1}) },
		"internode same node":     func() { c.InterNode(NIC{0, 0}, NIC{0, 1}) },
		"unknown drive":           func() { c.NVMeLink(DriveSpec{0, 0, 9}) },
		"bad gpu":                 func() { c.PCIeGPULink(GPU{0, 7}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPurposeBuiltConfigShape(t *testing.T) {
	cfg := PurposeBuiltConfig(2)
	if cfg.XbarBW <= DefaultXbarBW {
		t.Error("purpose-built should lift the crossbar budget")
	}
	if cfg.RoCEBW <= RoCELinkBW {
		t.Error("purpose-built should have faster NICs")
	}
	c := New(cfg)
	if got := c.RoCELink(NIC{0, 0}).Capacity(); got != cfg.RoCEBW {
		t.Errorf("RoCE capacity = %v, want %v", got, cfg.RoCEBW)
	}
	if got := c.NVLinkPair(GPU{0, 0}, GPU{0, 1}).Capacity(); got != cfg.NVLinkPairBW {
		t.Errorf("NVLink pair capacity = %v, want %v", got, cfg.NVLinkPairBW)
	}
}

func TestTheoreticalBWPanicsOnInternalClass(t *testing.T) {
	c := New(DefaultConfig(1))
	defer func() {
		if recover() == nil {
			t.Error("internal class did not panic")
		}
	}()
	c.TheoreticalClassBW(fabric.IODXbar)
}
