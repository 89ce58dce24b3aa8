package nvme

import (
	"math"
	"testing"

	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

func clusterFor(p Placement) (*topology.Cluster, []*Volume) {
	cfg := topology.DefaultConfig(1)
	cfg.Drives = p.Drives
	cfg.Window = 100 * sim.Millisecond
	c := topology.New(cfg)
	return c, p.Build(c)
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWriteBurstUsesCacheThenNAND(t *testing.T) {
	c, vols := clusterFor(ConfigA())
	v := vols[0]
	var doneAt sim.Time
	// 10 GB write from the drive's own socket: 2 GB at PCIe 16 GB/s
	// (0.125 s), 8 GB at the sustained NAND rate.
	v.IO(1, 10e9, true, func() { doneAt = c.Eng.Now() })
	c.Eng.Run()
	want := 2.0/16 + 8e9/SustainedBW
	if !almost(doneAt.ToSeconds(), want, 0.01) {
		t.Errorf("10 GB write took %v, want ~%.3fs", doneAt, want)
	}
}

func TestReadSkipsCache(t *testing.T) {
	c, vols := clusterFor(ConfigA())
	var doneAt sim.Time
	vols[0].IO(1, SustainedBW, false, func() { doneAt = c.Eng.Now() })
	c.Eng.Run()
	if !almost(doneAt.ToSeconds(), 1.0, 0.01) {
		t.Errorf("read of one NAND-second took %v, want ~1s", doneAt)
	}
}

func TestCacheDrainsWhileIdle(t *testing.T) {
	c, vols := clusterFor(ConfigA())
	d := vols[0].Drives[0]
	// Fill the 2 GB cache, then idle for half a second.
	d.IO(1, 2e9, true, func() {
		// The 2 GB burst takes 0.125 s at PCIe speed, during which the
		// cache concurrently destaged 0.25 GB to NAND.
		if free := d.CacheFree(); !almost(free, 0.25e9, 5e7) {
			t.Errorf("cache free after fill = %v, want ~0.25e9", free)
		}
		c.Eng.Schedule(sim.Seconds(0.5), func() { // drains 1 GB more at 2 GB/s
			if free := d.CacheFree(); !almost(free, 1.25e9, 5e7) {
				t.Errorf("cache free after 0.5s idle = %v, want ~1.25e9", free)
			}
		})
	})
	c.Eng.Run()
}

func TestCrossSocketIOSlower(t *testing.T) {
	// Same-socket read vs cross-socket read of the same size.
	cs, vs := clusterFor(ConfigA())
	var sameAt sim.Time
	vs[0].IO(1, 6.4e9, false, func() { sameAt = cs.Eng.Now() })
	cs.Eng.Run()

	cc, vc := clusterFor(ConfigA())
	var crossAt sim.Time
	vc[0].IO(0, 6.4e9, false, func() { crossAt = cc.Eng.Now() })
	cc.Eng.Run()
	ratio := crossAt.ToSeconds() / sameAt.ToSeconds()
	if !almost(ratio, 1/CrossNUMAEff, 0.05) {
		t.Errorf("cross/same = %.2f, want ~%.2f", ratio, 1/CrossNUMAEff)
	}
}

func TestRAID0Faster(t *testing.T) {
	ca, va := clusterFor(ConfigA())
	var aAt sim.Time
	va[0].IO(1, 12.8e9, false, func() { aAt = ca.Eng.Now() })
	ca.Eng.Run()

	cb, vb := clusterFor(ConfigB())
	var bAt sim.Time
	vb[0].IO(1, 12.8e9, false, func() { bAt = cb.Eng.Now() })
	cb.Eng.Run()
	if ratio := aAt.ToSeconds() / bAt.ToSeconds(); !almost(ratio, 2, 0.1) {
		t.Errorf("RAID0 speedup = %.2f, want ~2x", ratio)
	}
}

func TestSpanningRAIDPaysNUMAPenalty(t *testing.T) {
	// Config C (RAID0 across sockets) should be slower than Config B
	// (RAID0 on one socket) for a same-socket-1 issuer, because half the
	// stripes land on the remote socket.
	cb, vb := clusterFor(ConfigB())
	var bAt sim.Time
	vb[0].IO(1, 12.8e9, false, func() { bAt = cb.Eng.Now() })
	cb.Eng.Run()

	cc, vc := clusterFor(ConfigC())
	var cAt sim.Time
	vc[0].IO(1, 12.8e9, false, func() { cAt = cc.Eng.Now() })
	cc.Eng.Run()
	if cAt <= bAt {
		t.Errorf("spanning RAID (%v) should be slower than local RAID (%v)", cAt, bAt)
	}
}

func TestSpanningRAIDTouchesXGMI(t *testing.T) {
	cc, vc := clusterFor(ConfigC())
	vc[0].IO(1, 12.8e9, false, func() {})
	cc.Eng.Run()
	cc.Net.Quiesce()
	if cc.XGMILink(0).Counter().Total() == 0 {
		t.Error("socket-spanning RAID produced no xGMI traffic")
	}
	cb, vb := clusterFor(ConfigB())
	vb[0].IO(1, 12.8e9, false, func() {})
	cb.Eng.Run()
	cb.Net.Quiesce()
	if cb.XGMILink(0).Counter().Total() != 0 {
		t.Error("local RAID should produce no xGMI traffic")
	}
}

func TestVolumeCapacity(t *testing.T) {
	_, vols := clusterFor(ConfigB())
	if got := vols[0].Capacity(); got != 2*CapacityBytes {
		t.Errorf("capacity = %v, want %v", got, 2*CapacityBytes)
	}
}

func TestAllConfigsValid(t *testing.T) {
	cfgs := AllConfigs()
	if len(cfgs) != 7 {
		t.Fatalf("got %d configs, want 7 (A-G)", len(cfgs))
	}
	names := "ABCDEFG"
	for i, p := range cfgs {
		if p.Name != string(names[i]) {
			t.Errorf("config %d named %q", i, p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("config %s invalid: %v", p.Name, err)
		}
	}
}

func TestConfigDriveCounts(t *testing.T) {
	wantDrives := map[string]int{"A": 1, "B": 2, "C": 2, "D": 2, "E": 4, "F": 4, "G": 4}
	wantVols := map[string]int{"A": 1, "B": 1, "C": 1, "D": 2, "E": 1, "F": 2, "G": 4}
	for _, p := range AllConfigs() {
		if len(p.Drives) != wantDrives[p.Name] {
			t.Errorf("config %s has %d drives, want %d", p.Name, len(p.Drives), wantDrives[p.Name])
		}
		if len(p.Volumes) != wantVols[p.Name] {
			t.Errorf("config %s has %d volumes, want %d", p.Name, len(p.Volumes), wantVols[p.Name])
		}
	}
}

func TestTopologyAwareMappingsAreLocal(t *testing.T) {
	// In configs D, F, G every rank's volume must be entirely on the
	// rank's socket — the paper's recommended topology-aware mapping.
	for _, p := range []Placement{ConfigD(), ConfigF(), ConfigG()} {
		for rank, vi := range p.RankVol {
			socket := rank / 2
			for _, di := range p.Volumes[vi] {
				if p.Drives[di].Socket != socket {
					t.Errorf("config %s rank %d (socket %d) maps to drive on socket %d",
						p.Name, rank, socket, p.Drives[di].Socket)
				}
			}
		}
	}
}

func TestConfigByName(t *testing.T) {
	p, err := ConfigByName("E")
	if err != nil || p.Name != "E" {
		t.Errorf("ConfigByName(E) = %v, %v", p.Name, err)
	}
	if _, err := ConfigByName("Z"); err == nil {
		t.Error("unknown config accepted")
	}
}

func TestValidateRejectsBadPlacements(t *testing.T) {
	bad := []Placement{
		{Name: "no-ranks", Drives: []topology.DriveSpec{drive(0, 0)}, Volumes: [][]int{{0}}, RankVol: []int{0}},
		{Name: "empty-vol", Drives: []topology.DriveSpec{drive(0, 0)}, Volumes: [][]int{{}}, RankVol: []int{0, 0, 0, 0}},
		{Name: "oob-drive", Drives: []topology.DriveSpec{drive(0, 0)}, Volumes: [][]int{{3}}, RankVol: []int{0, 0, 0, 0}},
		{Name: "dup-drive", Drives: []topology.DriveSpec{drive(0, 0)}, Volumes: [][]int{{0}, {0}}, RankVol: []int{0, 0, 0, 0}},
		{Name: "oob-vol", Drives: []topology.DriveSpec{drive(0, 0)}, Volumes: [][]int{{0}}, RankVol: []int{0, 0, 0, 5}},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("placement %s accepted", p.Name)
		}
	}
}

func TestNegativeIOPanics(t *testing.T) {
	_, vols := clusterFor(ConfigA())
	defer func() {
		if recover() == nil {
			t.Error("negative IO did not panic")
		}
	}()
	vols[0].IO(1, -1, true, nil)
}

func TestPeakExceedsSustainedInTelemetry(t *testing.T) {
	// The paper's Sec V-B3 signature: PCIe-NVMe shows short bursts near
	// link speed and a much lower average.
	c, vols := clusterFor(ConfigA())
	d := vols[0].Drives[0]
	// Three 3 GB writes, each followed by an idle gap in which the cache
	// partially drains.
	writes := 0
	var write func()
	write = func() {
		if writes == 3 {
			return
		}
		writes++
		d.IO(1, 3e9, true, func() { c.Eng.Schedule(2*sim.Second, write) })
	}
	c.Eng.Schedule(0, write)
	end := c.Eng.Run()
	c.Net.Quiesce()
	st := d.pcie.Counter().Stats(end)
	if st.Peak < 3*st.Avg {
		t.Errorf("peak (%v) should dwarf average (%v) for bursty NVMe traffic", st.Peak, st.Avg)
	}
	if st.Peak < 10e9 {
		t.Errorf("peak = %v, want near PCIe speed while cache absorbs", st.Peak)
	}
}
