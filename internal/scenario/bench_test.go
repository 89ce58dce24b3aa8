package scenario_test

import (
	"testing"

	"llmbw/internal/scenario"
)

// benchCache is package-level so the tier registers once no matter how many
// times the benchmark body reruns.
var benchCache = scenario.New("bench.warmget", 8)

// BenchmarkScenarioCacheWarmGet pins the warm replay probe — the path every
// servesim cache hit takes — at zero allocations per operation.
func BenchmarkScenarioCacheWarmGet(b *testing.B) {
	key := "bench-key"
	if _, err := benchCache.Do(key, func() (any, error) { return 42, nil }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := benchCache.Get(key); !ok {
			b.Fatal("warm key missed")
		}
	}
}
