package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"llmbw/internal/train"
)

// dcRunBody is a datacenter-scale scenario: 64 fat-tree nodes with the
// hierarchical collective, the shape whose cold cost (topology build, plan
// compile, schedule compile, simulation) the warm cache amortises.
const dcRunBody = `{"strategy":"ddp","layers":4,"iterations":1,"warmup":1,"topo":"fat-tree:nodes=64","algo":"2level"}`

func benchPost(b *testing.B, ts *httptest.Server, path, body string) {
	b.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// BenchmarkServeColdRun is the miss path: every request re-simulates the
// 64-node scenario (the result tier is reset each iteration; the blueprint,
// shape and schedule tiers stay warm, as they would across distinct queries
// in a live daemon).
func BenchmarkServeColdRun(b *testing.B) {
	ts := httptest.NewServer(newServer(2))
	defer ts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		train.ResetRunCache()
		benchPost(b, ts, "/run", dcRunBody)
	}
}

// BenchmarkServeWarmRun is the hit path: the same request served from the
// memoized result. The headline ratio against BenchmarkServeColdRun is the
// serving layer's reason to exist.
func BenchmarkServeWarmRun(b *testing.B) {
	ts := httptest.NewServer(newServer(2))
	defer ts.Close()
	benchPost(b, ts, "/run", dcRunBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts, "/run", dcRunBody)
	}
}

// BenchmarkServeWarmSweep: a whole warm sweep (three sizes sharing the
// fabric blueprint) answered from the cache.
func BenchmarkServeWarmSweep(b *testing.B) {
	ts := httptest.NewServer(newServer(2))
	defer ts.Close()
	body := `{"strategy":"ddp","sizes":"0.35,0.7,1.4","iterations":1,"warmup":1,"topo":"fat-tree:nodes=64","algo":"2level"}`
	benchPost(b, ts, "/sweep", body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts, "/sweep", body)
	}
}
