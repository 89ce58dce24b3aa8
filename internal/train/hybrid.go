package train

import (
	"llmbw/internal/collective"
	"llmbw/internal/topology"
)

// Hybrid tensor+pipeline parallelism. The paper's Megatron-LM runs are
// configured "TP=4 and PP=4" (single node) and "TP=8 and PP=8" (dual node);
// our default Megatron model treats the model-parallel degree as pure tensor
// parallelism with gradient-accumulation microbatches, which matches the
// observed NVLink-heavy all-reduce traffic. MegatronHybrid generalizes it:
// degree = TP × PP, with pipeline stages mapped contiguously onto the
// node-major rank order (so TP groups stay inside a node whenever TP ≤ 4 and
// only the slim point-to-point activation sends cross RoCE) — the deployment
// the Megatron-LM papers recommend for multi-node clusters.
//
// The pipeline runs a GPipe-style schedule with M = world-size microbatches:
// (M + PP − 1) forward slots followed by (M + PP − 1) backward slots. Every
// slot executes one stage-worth of layers on each active stage (lockstep —
// stages are uniform) with that stage's tensor-parallel all-reduces, plus the
// boundary activation sends between adjacent stages. compileMegatronHybrid
// lowers that schedule; the helpers below build its stage groups and
// boundary routes.

// stageGroups builds the TP collective group of every pipeline stage.
func (r *Runner) stageGroups(tp, pp int) []*collective.Group {
	ranks := collective.NodeMajorRanks(r.cfg.Nodes, topology.GPUsPerNode)
	groups := make([]*collective.Group, pp)
	for s := 0; s < pp; s++ {
		groups[s] = collective.NewGroup(r.cluster, ranks[s*tp:(s+1)*tp])
	}
	return groups
}

// stageBoundaryRoutes returns the activation route between the last rank of
// each stage and the first rank of the next.
func (r *Runner) stageBoundaryRoutes(tp, pp int) []topology.Route {
	ranks := collective.NodeMajorRanks(r.cfg.Nodes, topology.GPUsPerNode)
	routes := make([]topology.Route, 0, pp-1)
	for s := 0; s+1 < pp; s++ {
		a := ranks[s*tp+tp-1]
		b := ranks[(s+1)*tp]
		if a.Node == b.Node {
			routes = append(routes, r.cluster.GPUToGPU(a, b))
		} else {
			routes = append(routes, r.cluster.GPUToRemoteGPU(a, b))
		}
	}
	return routes
}
