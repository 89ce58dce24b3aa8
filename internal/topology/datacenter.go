// Datacenter-scale fabrics. The paper's testbed stops at two nodes; the
// production-scale question (ROADMAP item 1) is what DeepSpeed-style
// collectives cost on 1k+ GPU fabrics. This file generates the three
// topology families the related work studies — full-bisection fat-tree,
// rail-only (Wang & Ghobadi: one independent network per NIC rail), and
// dragonfly (per-group all-to-all optical globals) — as simulated link
// graphs with globally stable names, plus the pod/rail-aligned sharding that
// lets the conservative-lookahead PDES engine run them in parallel.
//
// The node model is deliberately coarser than the XE8545 testbed: a
// datacenter training node is a purpose-built machine (DGX class) whose
// GPUsPerNode GPUs sit behind one non-blocking NVSwitch domain (a single
// aggregated NVLink-class link per node) with one GPU-adjacent rail NIC per
// rail (no I/O-die crossbar on the path). What differs between the families
// is only the switching fabric between the NICs:
//
//	fat-tree:  per-pod per-rail uplink/downlink trunks into a full-bisection
//	           (oversubscribable) leaf-spine core; any NIC reaches any NIC.
//	rail-only: NICs of rail r connect only to other NICs of rail r through a
//	           per-rail non-blocking network; there is no cross-rail path —
//	           cross-rail traffic must hop through a node's NVSwitch.
//	dragonfly: nodes form groups with a non-blocking group switch; each
//	           ordered group pair is joined by one optical global bundle.
//
// Every cross-node route decomposes into a sender-owned half and a
// receiver-owned half (trunks belong to the source or destination pod), so
// pod-aligned partitions never split a fair-share domain — the property that
// makes hierarchical collectives handoff-leggable (see internal/collective).
package topology

import (
	"fmt"
	"sort"
	"strconv"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
	"llmbw/internal/telemetry"
)

// TopoKind selects a datacenter fabric family.
type TopoKind int

// The generated families.
const (
	FatTree TopoKind = iota + 1
	RailOnly
	Dragonfly
)

var kindNames = map[TopoKind]string{
	FatTree: "fat-tree", RailOnly: "rail-only", Dragonfly: "dragonfly",
}

func (k TopoKind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("TopoKind(%d)", int(k))
}

// Datacenter fabric defaults. NIC rate matches the testbed's RoCE class so
// per-class telemetry stays comparable; the NVSwitch domain is the
// purpose-built 600 GB/s any-pair fabric.
const (
	DCNICBW   = 50.0 * GB  // per rail NIC, bidirectional aggregate
	DCNVBW    = 600.0 * GB // per-node NVSwitch domain, any GPU pair
	DCRails   = 4          // one rail NIC per GPU
	DCPodSize = 4          // nodes per pod / rail-leaf group / dragonfly group
	DCRadix   = 64         // switch radix for the port-count model

	// LatDCWire is the one-way NIC→leaf→NIC wire latency of a minimal
	// (same-pod / same-rail-leaf) path. It is also the conservative
	// lookahead between pod shards: no cross-node interaction is faster.
	LatDCWire = 1 * sim.Microsecond
	// LatDCTier is the added latency per extra switching tier a route
	// traverses (fat-tree spine, dragonfly global).
	LatDCTier = 1 * sim.Microsecond
)

// MaxDCNodes bounds generated fabrics; 1024 nodes × 4 GPUs covers the
// "1k+ GPU" regime while keeping link counts (≈6k) in the flat-cost range
// the route interning is designed for.
const MaxDCNodes = 1024

// MaxDCOversub bounds fat-tree uplink oversubscription. A leaf switch keeps
// at least one of its DCRadix ports facing the spine, so a default-radix
// leaf tapers at most 63:1; 64 rounds that up. Past it the ratio models no
// buildable fabric, while virtual time, and with it the telemetry windows
// every busy link records, grows linearly with it: one 16-node ZeRO-3
// iteration takes 0.98 simulated seconds at 64, 14.7 s at 1,000 and
// ~1,475 s at 100,000, so a large value hangs a run instead of failing it.
const MaxDCOversub = 64

// DCConfig parameterizes a datacenter fabric. The zero value is not valid;
// fill Kind and Nodes and let withDefaults supply the rest (ParseTopoSpec
// does this for CLI specs).
type DCConfig struct {
	Kind    TopoKind
	Nodes   int
	Rails   int // rail NICs per node (default DCRails, one per GPU)
	PodSize int // nodes per pod / group / rail-leaf (default DCPodSize)

	NICBW    float64 // per rail NIC (default DCNICBW)
	NVBW     float64 // per-node NVSwitch domain (default DCNVBW)
	GlobalBW float64 // dragonfly: per ordered group pair (default PodSize×NICBW/2)
	Oversub  float64 // fat-tree uplink oversubscription, 1..MaxDCOversub (default 1 = full bisection)
	Radix    int     // switch radix for SwitchPorts (default DCRadix)

	Window sim.Time // telemetry sampling window; 0 = default

	// FirstNode/FirstPod offset the global numbering used in link names, so
	// sub-clusters of a partitioned simulation expose the same telemetry
	// identity they would have in one monolithic cluster. TotalPods is the
	// global pod count (dragonfly sub-clusters need it to emit their global
	// bundles to every other group); 0 means Pods().
	FirstNode, FirstPod int
	TotalPods           int
}

// WithDefaults fills unset fields.
func (c DCConfig) WithDefaults() DCConfig {
	if c.Rails == 0 {
		c.Rails = DCRails
	}
	if c.PodSize == 0 {
		c.PodSize = DCPodSize
	}
	if c.NICBW == 0 {
		c.NICBW = DCNICBW
	}
	if c.NVBW == 0 {
		c.NVBW = DCNVBW
	}
	if c.GlobalBW == 0 {
		c.GlobalBW = float64(c.PodSize) * c.NICBW / 2
	}
	if c.Oversub == 0 {
		c.Oversub = 1
	}
	if c.Radix == 0 {
		c.Radix = DCRadix
	}
	return c
}

// Validate reports configuration errors.
func (c DCConfig) Validate() error {
	c = c.WithDefaults()
	switch c.Kind {
	case FatTree, RailOnly, Dragonfly:
	default:
		return fmt.Errorf("topology: unknown fabric kind %v", c.Kind)
	}
	if c.Nodes < 1 || c.Nodes > MaxDCNodes {
		return fmt.Errorf("topology: %d nodes outside the supported 1-%d range", c.Nodes, MaxDCNodes)
	}
	if c.Rails < 1 || c.Rails > GPUsPerNode*2 {
		return fmt.Errorf("topology: %d rails outside the supported 1-%d range", c.Rails, GPUsPerNode*2)
	}
	if c.PodSize < 1 || c.PodSize > MaxDCNodes {
		return fmt.Errorf("topology: pod size %d outside the supported 1-%d range", c.PodSize, MaxDCNodes)
	}
	if c.Radix < 3 {
		// A Clos tier of radix r multiplies reach by r/2, so r < 3 never grows.
		return fmt.Errorf("topology: switch radix %d below 3", c.Radix)
	}
	if !(c.Oversub >= 1 && c.Oversub <= MaxDCOversub) { // NaN fails too
		return fmt.Errorf("topology: oversubscription %g outside the supported 1-%d range", c.Oversub, MaxDCOversub)
	}
	return nil
}

// Pods returns the number of pods/groups (the last may be short).
func (c DCConfig) Pods() int {
	c = c.WithDefaults()
	return (c.Nodes + c.PodSize - 1) / c.PodSize
}

// Seams returns the node count of each pod — the natural partition blocks a
// sharded build must not split, because pod trunks (fat-tree up/down links,
// dragonfly globals) are fair-shared within one pod.
func (c DCConfig) Seams() []int {
	c = c.WithDefaults()
	seams := make([]int, c.Pods())
	left := c.Nodes
	for i := range seams {
		if left < c.PodSize {
			seams[i] = left
		} else {
			seams[i] = c.PodSize
		}
		left -= seams[i]
	}
	return seams
}

// Spec renders the configuration in ParseTopoSpec syntax. Oversubscription
// and radix appear only when they differ from their defaults, so default
// specs keep their short form.
func (c DCConfig) Spec() string {
	c = c.WithDefaults()
	s := fmt.Sprintf("%s:nodes=%d,pod=%d,rails=%d", c.Kind, c.Nodes, c.PodSize, c.Rails)
	if c.Oversub != 1 {
		s += ",oversub=" + strconv.FormatFloat(c.Oversub, 'f', -1, 64)
	}
	if c.Radix != DCRadix {
		s += ",radix=" + strconv.Itoa(c.Radix)
	}
	return s
}

// clos returns the switching-tier count and total switch-port count of a
// folded-Clos (fat-tree) network over endpoints hosts at the given radix:
// one tier serves up to radix endpoints, and each further tier multiplies
// reach by radix/2 (half the ports face down, half up). A full-bisection
// network with t tiers exposes endpoints ports at the leaf tier and
// 2·endpoints at each tier boundary above it: endpoints×(2t−1) ports total.
func clos(endpoints, radix int) (tiers, ports int) {
	tiers = 1
	for reach := radix; reach < endpoints; reach = reach * radix / 2 {
		tiers++
	}
	return tiers, endpoints * (2*tiers - 1)
}

// SwitchPorts returns the total switch-port count of the fabric — the cost
// metric of the rail-only comparison (Wang & Ghobadi count transceivers;
// ports are proportional). Fat-tree builds one Clos over Nodes×Rails
// endpoints; rail-only builds Rails independent Clos networks over Nodes
// endpoints each — fewer tiers per network is where the savings come from;
// dragonfly uses one group switch per pod (PodSize×Rails endpoint ports)
// plus a global port per ordered group pair.
func (c DCConfig) SwitchPorts() int {
	c = c.WithDefaults()
	switch c.Kind {
	case FatTree:
		_, ports := clos(c.Nodes*c.Rails, c.Radix)
		return ports
	case RailOnly:
		_, ports := clos(c.Nodes, c.Radix)
		return c.Rails * ports
	case Dragonfly:
		pods := c.Pods()
		return c.Nodes*c.Rails + pods*(pods-1)
	}
	return 0
}

// DCCluster is one (sub-)fabric's wired-up link graph: the per-node NVSwitch
// and rail-NIC links of its nodes plus the trunks its pods own. A monolithic
// simulation has one; a sharded one has one per shard (see NewDCSharded).
type DCCluster struct {
	Cfg DCConfig
	Eng *sim.Engine
	Net *fabric.Network

	nv     []*fabric.Link   // [local node]
	nic    [][]*fabric.Link // [local node][rail]
	up     [][]*fabric.Link // [local pod][rail], fat-tree
	down   [][]*fabric.Link // [local pod][rail], fat-tree
	global [][]*fabric.Link // [local pod][global dest pod], dragonfly (nil at self)
	all    []*fabric.Link
}

// dcNames is the precomputed link-name table of one sub-fabric build: all the
// fmt.Sprintf work of naming a fabric's links (≈6k strings at 1024 nodes),
// rendered once per blueprint and shared by every cluster instantiated from
// it. Indices mirror the DCCluster link tables.
type dcNames struct {
	nv     []string   // [local node]
	nic    [][]string // [local node][rail]
	up     [][]string // [local pod][rail], fat-tree
	down   [][]string // [local pod][rail], fat-tree
	global [][]string // [local pod][global dest pod], dragonfly ("" at self)
}

// dcNamesFor renders the link-name table of a sub-fabric. cfg must be
// validated and have defaults applied.
func dcNamesFor(cfg DCConfig) *dcNames {
	nm := &dcNames{}
	for n := 0; n < cfg.Nodes; n++ {
		gn := cfg.FirstNode + n
		nm.nv = append(nm.nv, fmt.Sprintf("dc%d/nv", gn))
		var nics []string
		for r := 0; r < cfg.Rails; r++ {
			nics = append(nics, fmt.Sprintf("dc%d/nic%d", gn, r))
		}
		nm.nic = append(nm.nic, nics)
	}
	pods := (cfg.Nodes + cfg.PodSize - 1) / cfg.PodSize
	totalPods := cfg.TotalPods
	if totalPods == 0 {
		totalPods = pods
	}
	switch cfg.Kind {
	case FatTree:
		if totalPods == 1 {
			break
		}
		for p := 0; p < pods; p++ {
			gp := cfg.FirstPod + p
			var ups, downs []string
			for r := 0; r < cfg.Rails; r++ {
				ups = append(ups, fmt.Sprintf("pod%d/up%d", gp, r))
				downs = append(downs, fmt.Sprintf("pod%d/down%d", gp, r))
			}
			nm.up = append(nm.up, ups)
			nm.down = append(nm.down, downs)
		}
	case Dragonfly:
		for p := 0; p < pods; p++ {
			gp := cfg.FirstPod + p
			row := make([]string, totalPods)
			for q := 0; q < totalPods; q++ {
				if q != gp {
					row[q] = fmt.Sprintf("g%d>g%d/opt", gp, q)
				}
			}
			nm.global = append(nm.global, row)
		}
	}
	return nm
}

// buildDC wires a DC link graph onto eng. cfg must be validated and have
// defaults applied.
func buildDC(eng *sim.Engine, cfg DCConfig) *DCCluster {
	return buildDCNamed(eng, cfg, dcNamesFor(cfg))
}

// buildDCNamed wires a DC link graph onto eng using a precomputed name table
// (the blueprint fast path: link construction without any string rendering).
func buildDCNamed(eng *sim.Engine, cfg DCConfig, nm *dcNames) *DCCluster {
	dc := &DCCluster{Cfg: cfg, Eng: eng, Net: fabric.NewNetwork(eng)}
	mk := func(name string, class fabric.Class, node int, bw float64) *fabric.Link {
		l := fabric.NewLink(name, class, node, bw, cfg.Window)
		dc.all = append(dc.all, l)
		return l
	}
	for n := 0; n < cfg.Nodes; n++ {
		gn := cfg.FirstNode + n
		dc.nv = append(dc.nv, mk(nm.nv[n], fabric.NVLink, gn, cfg.NVBW))
		var nics []*fabric.Link
		for r := 0; r < cfg.Rails; r++ {
			nics = append(nics, mk(nm.nic[n][r], fabric.RoCE, gn, cfg.NICBW))
		}
		dc.nic = append(dc.nic, nics)
	}
	switch cfg.Kind {
	case FatTree:
		trunkBW := float64(cfg.PodSize) * cfg.NICBW / cfg.Oversub
		for p := range nm.up {
			var ups, downs []*fabric.Link
			for r := 0; r < cfg.Rails; r++ {
				ups = append(ups, mk(nm.up[p][r], fabric.Uplink, -1, trunkBW))
				downs = append(downs, mk(nm.down[p][r], fabric.Uplink, -1, trunkBW))
			}
			dc.up = append(dc.up, ups)
			dc.down = append(dc.down, downs)
		}
	case Dragonfly:
		for p := range nm.global {
			row := make([]*fabric.Link, len(nm.global[p]))
			for q, name := range nm.global[p] {
				if name != "" {
					row[q] = mk(name, fabric.Uplink, -1, cfg.GlobalBW)
				}
			}
			dc.global = append(dc.global, row)
		}
	}
	return dc
}

// NewDC builds a monolithic datacenter cluster on a plain serial engine —
// the single-shard reference (tests, topoview).
func NewDC(cfg DCConfig) (*DCCluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return buildDC(sim.New(), cfg.WithDefaults()), nil
}

// NVFabric returns a node's aggregated NVSwitch-domain link.
func (dc *DCCluster) NVFabric(local int) *fabric.Link { return dc.nv[local] }

// NICLink returns a node's rail NIC link.
func (dc *DCCluster) NICLink(local, rail int) *fabric.Link { return dc.nic[local][rail] }

// Links returns every link in build order (deterministic).
func (dc *DCCluster) Links() []*fabric.Link { return dc.all }

// LinksOfClass returns this cluster's links of a class on a global node
// (-1 selects the pod trunks), sorted by name.
func (dc *DCCluster) LinksOfClass(class fabric.Class, node int) []*fabric.Link {
	var out []*fabric.Link
	for _, l := range dc.all {
		if l.Class == class && l.Node == node {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ClassSeries sums the utilization series of a class on a global node over
// [start, end) — the same per-node aggregation the testbed Cluster reports.
func (dc *DCCluster) ClassSeries(class fabric.Class, node int, start, end sim.Time) telemetry.Series {
	var sum telemetry.Series
	for _, l := range dc.LinksOfClass(class, node) {
		sum = sum.Sum(l.Counter().SeriesRange(start, end))
	}
	return sum
}

// DCShardedCluster is a datacenter fabric spread over the shards of one
// sharded engine along its pod seams: one DCCluster per shard, a lookahead
// of the minimal wire latency between every pair, a Handoff per directed
// shard pair for cross-node traffic. Workloads whose cross-node flows are
// fluid end to end (flat collectives, serving) form one fair-share domain
// and build it with a single shard.
type DCShardedCluster struct {
	Cfg  DCConfig
	Part Partition
	Eng  *sim.ShardedEngine

	Groups []*DCCluster // one per shard

	handoffs [][]*fabric.Handoff
	podOf    []int // global node -> global pod
}

func dcPodOf(cfg DCConfig) []int {
	podOf := make([]int, cfg.Nodes)
	for n := range podOf {
		podOf[n] = n / cfg.PodSize
	}
	return podOf
}

// NewDCSharded partitions the fabric over shards sub-engines along pod
// seams (MakeRailPartition over Seams), so every pod trunk and node link
// lands in exactly one shard's fair-share domain. The shard count is clamped
// to the pod count. The partition and link naming come from the cached
// blueprint (DCBlueprintFor); engines and links are always fresh.
func NewDCSharded(cfg DCConfig, shards int) (*DCShardedCluster, error) {
	bp, err := DCBlueprintFor(cfg, shards, false)
	if err != nil {
		return nil, err
	}
	return bp.Build(), nil
}

func (sc *DCShardedCluster) connectHandoffs() {
	n := len(sc.Groups)
	sc.handoffs = make([][]*fabric.Handoff, n)
	for i := range sc.handoffs {
		sc.handoffs[i] = make([]*fabric.Handoff, n)
		for j := range sc.handoffs[i] {
			sc.handoffs[i][j] = fabric.NewHandoff(sc.Eng, i, j, sc.Part.Lookahead,
				sc.Groups[i].Net, sc.Groups[j].Net)
		}
	}
}

// Nodes returns the global node count.
func (sc *DCShardedCluster) Nodes() int { return sc.Cfg.Nodes }

// ShardOf returns the shard owning a global node.
func (sc *DCShardedCluster) ShardOf(node int) int { return sc.Part.Of[node] }

// GroupOf returns the sub-cluster owning a global node and the node's local
// index within it.
func (sc *DCShardedCluster) GroupOf(node int) (*DCCluster, int) {
	s := sc.Part.Of[node]
	return sc.Groups[s], node - sc.Part.First[s]
}

// EngineOf returns the shard engine a global node's events run on.
func (sc *DCShardedCluster) EngineOf(node int) *sim.Engine {
	return sc.Eng.Shard(sc.Part.Of[node])
}

// Handoff returns the store-and-forward channel for traffic between two
// global nodes' partitions; same-shard pairs get the local (plain-delay)
// handoff so routing is uniform wherever the boundaries fall — which is what
// keeps the simulated numerics identical at every shard count.
func (sc *DCShardedCluster) Handoff(fromNode, toNode int) *fabric.Handoff {
	return sc.handoffs[sc.Part.Of[fromNode]][sc.Part.Of[toNode]]
}

// RailPath decomposes the cross-node route from one global node to another
// on a rail into a sender-owned half, a receiver-owned half, and the extra
// switching-tier latency beyond the minimal wire hop. The decomposition
// depends only on the global topology — never on the shard layout — so
// compiled plans built from it are identical at every shard count.
func (sc *DCShardedCluster) RailPath(from, to, rail int) (src, dst []*fabric.Link, extra sim.Time) {
	links, nsrc, extra := sc.AppendRailPath(nil, from, to, rail)
	return links[:nsrc:nsrc], links[nsrc:], extra
}

// AppendRailPath appends RailPath's route to links, the sender-owned half
// first, and returns the extended slice with the sender-owned half's length
// and the extra latency. Callers that bind many routes cut the halves out of
// one slab this way.
func (sc *DCShardedCluster) AppendRailPath(links []*fabric.Link, from, to, rail int) ([]*fabric.Link, int, sim.Time) {
	ga, la := sc.GroupOf(from)
	gb, lb := sc.GroupOf(to)
	nicA := ga.nic[la][rail]
	nicB := gb.nic[lb][rail]
	pa, pb := sc.podOf[from], sc.podOf[to]
	if pa == pb {
		return append(links, nicA, nicB), 1, 0
	}
	switch sc.Cfg.Kind {
	case FatTree:
		return append(links, nicA, ga.up[pa-ga.Cfg.FirstPod][rail], gb.down[pb-gb.Cfg.FirstPod][rail], nicB), 2,
			2 * LatDCTier
	case RailOnly:
		// Per-rail Clos: non-blocking, one extra tier once the rail network
		// outgrows a single leaf.
		var extra sim.Time
		if sc.Cfg.Nodes > sc.Cfg.PodSize {
			extra = LatDCTier
		}
		return append(links, nicA, nicB), 1, extra
	case Dragonfly:
		return append(links, nicA, ga.global[pa-ga.Cfg.FirstPod][pb], nicB), 2, LatDCTier
	}
	panic(fmt.Sprintf("topology: unknown fabric kind %v", sc.Cfg.Kind))
}

// NVFabric returns a global node's NVSwitch-domain link.
func (sc *DCShardedCluster) NVFabric(node int) *fabric.Link {
	g, l := sc.GroupOf(node)
	return g.nv[l]
}

// ClassSeries merges a class's utilization series on one global node.
func (sc *DCShardedCluster) ClassSeries(class fabric.Class, node int, start, end sim.Time) telemetry.Series {
	g, _ := sc.GroupOf(node)
	return g.ClassSeries(class, node, start, end)
}

// RunSim drives the simulation to completion and shuts the workers down.
func (sc *DCShardedCluster) RunSim() sim.Time {
	defer sc.Eng.Close()
	return sc.Eng.Run()
}
