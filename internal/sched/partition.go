// Package sched holds round-robin partition arithmetic: splits of a model's
// layer count into gradient communication buckets (PyTorch DDP / DeepSpeed
// bucketing) and ZeRO-3 parameter prefetch groups for train's schedule
// compiler and its multi-process straggler study, and the deal of nodes or
// pods to shards in topology's partitioners. It imports nothing from the
// simulator, so any of those layers can depend on it without a cycle.
package sched

// RoundRobin deals items one at a time into parts slices (item i lands in
// part i%parts), the distribution PyTorch's bucket assignment produces:
// every part gets either ⌊items/parts⌋ or ⌈items/parts⌉ items. parts == 0 is
// only meaningful for items == 0 and yields an empty split.
func RoundRobin(items, parts int) []int {
	if parts < 0 {
		parts = 0
	}
	out := make([]int, parts)
	for i := 0; i < items; i++ {
		out[i%parts]++
	}
	return out
}

// Buckets splits layers into communication buckets of at most perBucket
// layers each, capped at maxBuckets buckets (NCCL stream serialization keeps
// overlapped buckets ordered, so more buckets stop paying off). Always
// returns at least one bucket; zero layers yield a single empty bucket, the
// degenerate schedule with one empty flush.
func Buckets(layers, perBucket, maxBuckets int) []int {
	n := (layers + perBucket - 1) / perBucket
	if n > maxBuckets {
		n = maxBuckets
	}
	if n < 1 {
		n = 1
	}
	return RoundRobin(layers, n)
}

// Groups splits layers into want prefetch groups, shrinking the group count
// when there are fewer layers than groups (every group holds at least one
// layer). Zero layers yield zero groups: there is nothing to prefetch.
func Groups(layers, want int) []int {
	n := want
	if layers < n {
		n = layers
	}
	return RoundRobin(layers, n)
}
