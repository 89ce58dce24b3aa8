// Package nvme models the Intel D7-P5600 scratch drives and the storage
// layouts of the paper's Section V: single drives, mdadm RAID0 volumes, and
// the seven placement configurations (A–G) of Fig 14 that map each GPU rank
// to a disk or RAID0 volume.
//
// The drive model captures the two behaviours the paper highlights:
//
//  1. A DRAM write cache absorbs bursts at PCIe speed until it fills, after
//     which throughput collapses to the sustained NAND rate — producing the
//     "abrupt peak, low average" PCIe-NVMe utilization of Section V-B3.
//  2. I/O issued from a CPU socket other than the drive's host socket pays a
//     cross-NUMA efficiency penalty on top of the xGMI/crossbar path,
//     matching Table VI's finding that RAID0 volumes spanning sockets lose
//     throughput to xGMI traffic.
package nvme

import (
	"fmt"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// Calibrated drive characteristics (Intel D7-P5600 3.2 TB under DeepSpeed's
// mixed sequential read/write optimizer traffic).
const (
	GB = 1e9
	// SustainedBW is the NAND-limited combined read+write rate per drive
	// under DeepSpeed's mixed sequential optimizer traffic (the P5600 is
	// specified at 7 GB/s sequential read, 4.3 GB/s sequential write).
	SustainedBW = 4.5 * GB
	// CacheBytes is the effective DRAM write-cache window per drive.
	CacheBytes = 2 * GB
	// CacheDrainBW is how fast the cache destages to NAND while idle.
	CacheDrainBW = 2.0 * GB
	// CrossNUMAEff is the single-stream efficiency of I/O issued from the
	// remote socket (cross-NUMA aio submission + data placement penalty).
	CrossNUMAEff = 0.65
	// CapacityBytes is the usable capacity per drive.
	CapacityBytes = 3200 * GB
)

// Drive is one NVMe device: its PCIe x4 link plus a media (NAND) resource.
type Drive struct {
	Spec  topology.DriveSpec
	pcie  *fabric.Link
	media *fabric.Link

	cacheFree float64
	lastDrain sim.Time
	cluster   *topology.Cluster
}

// NewDrive attaches a drive model to a cluster slot declared in the
// topology config.
func NewDrive(c *topology.Cluster, spec topology.DriveSpec) *Drive {
	media := fabric.NewLink(
		fmt.Sprintf("n%d/nvme-media%d.%d", spec.Node, spec.Socket, spec.Slot),
		fabric.NVMeDev, spec.Node, SustainedBW, c.Cfg.Window)
	return &Drive{
		Spec:      spec,
		pcie:      c.NVMeLink(spec),
		media:     media,
		cacheFree: CacheBytes,
		cluster:   c,
	}
}

// drainCache credits idle-time destaging to the cache.
func (d *Drive) drainCache() {
	now := d.cluster.Eng.Now()
	dt := (now - d.lastDrain).ToSeconds()
	d.lastDrain = now
	d.cacheFree += dt * CacheDrainBW
	if d.cacheFree > CacheBytes {
		d.cacheFree = CacheBytes
	}
}

// CacheFree returns the current write-cache headroom (after drain accrual).
func (d *Drive) CacheFree() float64 {
	d.drainCache()
	return d.cacheFree
}

// IO starts a transfer of the given bytes between the drive and the DRAM of
// the issuing socket, invoking onDone when complete. Writes consume cache
// headroom: the cached portion moves at PCIe speed (no media constraint),
// the remainder at the sustained NAND rate. Reads always pay the media rate.
// Cross-socket paths additionally cap the sustained portion at CrossNUMAEff
// of the media rate.
func (d *Drive) IO(socket int, bytes float64, write bool, onDone func()) {
	if bytes < 0 {
		panic("nvme: negative IO size")
	}
	net := d.cluster.Net
	route := d.cluster.CPUToNVMe(d.Spec.Node, socket, d.Spec)
	cross := socket != d.Spec.Socket

	burst := 0.0
	if write {
		d.drainCache()
		burst = bytes
		if burst > d.cacheFree {
			burst = d.cacheFree
		}
		d.cacheFree -= burst
	}
	sustained := bytes - burst

	startSustained := func() {
		if sustained <= 0 {
			d.cluster.Eng.Schedule(0, onDone)
			return
		}
		path := append(append([]*fabric.Link{}, route.Links...), d.media)
		if cross {
			// Cross-NUMA submission wastes media time (remote aio
			// completion paths, misaligned stripes): occupy the media
			// engine with the extra work so the penalty binds even when
			// several ranks share the drive.
			net.StartFlow(&fabric.Flow{
				Name:  fmt.Sprintf("nvme-numa-overhead/%s", d.media.Name),
				Path:  []*fabric.Link{d.media},
				Bytes: sustained * (1/CrossNUMAEff - 1),
			}, nil)
		}
		net.StartFlow(&fabric.Flow{
			Name:  fmt.Sprintf("nvme-io/%s", d.media.Name),
			Path:  path,
			Bytes: sustained,
		}, onDone)
	}
	if burst > 0 {
		net.StartFlow(&fabric.Flow{
			Name:  fmt.Sprintf("nvme-burst/%s", d.media.Name),
			Path:  route.Links,
			Bytes: burst,
		}, startSustained)
		return
	}
	startSustained()
}

// Volume is a storage target a rank writes to: one drive or an mdadm RAID0
// stripe set. RAID0 splits every transfer evenly across members, which is
// exactly what makes socket-spanning volumes costly (half the stripes cross
// xGMI regardless of the issuing socket).
type Volume struct {
	Name   string
	Drives []*Drive
}

// IO stripes a transfer across the member drives and completes when the
// slowest member finishes.
func (v *Volume) IO(socket int, bytes float64, write bool, onDone func()) {
	if len(v.Drives) == 0 {
		panic("nvme: empty volume")
	}
	per := bytes / float64(len(v.Drives))
	remaining := len(v.Drives)
	for _, d := range v.Drives {
		d.IO(socket, per, write, func() {
			remaining--
			if remaining == 0 {
				onDone()
			}
		})
	}
}

// Capacity returns total usable bytes.
func (v *Volume) Capacity() float64 { return CapacityBytes * float64(len(v.Drives)) }
