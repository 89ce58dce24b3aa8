package scenario_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"llmbw/internal/scenario"
)

func put(t *testing.T, c *scenario.Cache, key string, val any) {
	t.Helper()
	if _, err := c.Do(key, func() (any, error) { return val, nil }); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := scenario.New("test.counters", 8)
	put(t, c, "a", 1)
	v, err := c.Do("a", func() (any, error) {
		t.Fatal("hit must not recompute")
		return nil, nil
	})
	if err != nil || v.(int) != 1 {
		t.Fatalf("Do(a) = %v, %v; want 1", v, err)
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("Get(a) missed after Do")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("Get(b) hit without insert")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats = %+v; want 2 hits (Do+Get), 2 misses (Do+Get), 1 entry", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := scenario.New("test.lru", 2)
	put(t, c, "a", "A")
	put(t, c, "b", "B")
	// Touch a so b is the least recently used.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("Get(a) missed")
	}
	put(t, c, "c", "C")
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction; want it dropped as LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted; want it retained as recently used")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c evicted; want the fresh insert retained")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v; want 1 eviction, 2 entries", s)
	}
}

func TestCacheSetCapEvictsDown(t *testing.T) {
	c := scenario.New("test.setcap", 0) // unbounded
	for i := 0; i < 8; i++ {
		put(t, c, fmt.Sprintf("k%d", i), i)
	}
	if c.Len() != 8 {
		t.Fatalf("Len = %d; want 8 (unbounded)", c.Len())
	}
	c.SetCap(3)
	if c.Len() != 3 {
		t.Fatalf("Len = %d after SetCap(3); want 3", c.Len())
	}
	// The three most recently used survive.
	for i := 5; i < 8; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d evicted; want the MRU tail retained", i)
		}
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := scenario.New("test.singleflight", 8)
	var computes atomic.Int64
	var wg sync.WaitGroup
	const n = 16
	vals := make([]any, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do("shared", func() (any, error) {
				computes.Add(1)
				return "result", nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computations for one key; want exactly 1 (coalesced)", got)
	}
	for i, v := range vals {
		if v.(string) != "result" {
			t.Fatalf("goroutine %d got %v; want shared result", i, v)
		}
	}
	if s := c.Stats(); s.Misses != 1 {
		t.Fatalf("misses = %d; want 1 (misses count computations started)", s.Misses)
	}
}

func TestCacheCachesDeterministicErrors(t *testing.T) {
	c := scenario.New("test.errors", 8)
	want := errors.New("config does not fit")
	if _, err := c.Do("bad", func() (any, error) { return nil, want }); err != want {
		t.Fatalf("Do = %v; want the compute error", err)
	}
	if _, err := c.Do("bad", func() (any, error) {
		t.Fatal("error entries must be served, not recomputed")
		return nil, nil
	}); err != want {
		t.Fatalf("second Do = %v; want the cached error", err)
	}
}

// TestCacheRecordsPanicAsError: a compute that panics leaves its entry
// holding an error with the panic value, and a second Do on the key returns
// that same error without recomputing.
func TestCacheRecordsPanicAsError(t *testing.T) {
	c := scenario.New("test.panics", 8)
	_, first := c.Do("boom", func() (any, error) { panic("bad scenario") })
	if first == nil || !strings.Contains(first.Error(), "panicked: bad scenario") {
		t.Fatalf("Do = %v; want an error carrying the panic value", first)
	}
	v, again := c.Do("boom", func() (any, error) {
		t.Error("a panicked entry must be served, not recomputed")
		return 1, nil
	})
	if v != nil || again != first {
		t.Fatalf("second Do = (%v, %v); want (nil, the first error)", v, again)
	}
}

// TestCacheGetMissesErrorEntries: an entry that holds an error, whether
// returned or a recovered panic, has no artifact to replay, so Get reports
// ok == false for it and Do keeps serving the recorded error.
func TestCacheGetMissesErrorEntries(t *testing.T) {
	c := scenario.New("test.geterrors", 8)
	computes := map[string]func() (any, error){
		"error":           func() (any, error) { return nil, errors.New("config does not fit") },
		"error-and-value": func() (any, error) { return 7, errors.New("partial result") },
		"panic":           func() (any, error) { panic("bad scenario") },
	}
	for _, key := range []string{"error", "error-and-value", "panic"} {
		_, want := c.Do(key, computes[key])
		if want == nil {
			t.Fatalf("%s: Do returned no error", key)
		}
		if v, ok := c.Get(key); ok || v != nil {
			t.Errorf("%s: Get = (%v, %v); want (nil, false)", key, v, ok)
		}
		if _, err := c.Do(key, computes[key]); err != want {
			t.Errorf("%s: Do after Get = %v; want the recorded error %v", key, err, want)
		}
	}
}

// TestCacheWarmGetAllocFree pins the warm replay path at zero allocations:
// with the key prebuilt and the artifact resident, Get is a pure lookup.
func TestCacheWarmGetAllocFree(t *testing.T) {
	c := scenario.New("test.allocs", 8)
	val := &struct{ x int }{x: 42}
	put(t, c, "warm", val)
	key := "warm"
	allocs := testing.AllocsPerRun(1000, func() {
		v, ok := c.Get(key)
		if !ok || v != val {
			t.Fatal("warm Get missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Get allocates %.1f/op; want 0", allocs)
	}
}

func TestCacheReset(t *testing.T) {
	c := scenario.New("test.reset", 8)
	put(t, c, "a", 1)
	put(t, c, "b", 2)
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Reset; want 0", c.Len())
	}
	var recomputed bool
	if _, err := c.Do("a", func() (any, error) { recomputed = true; return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("Reset did not drop the entry")
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	a := scenario.New("test.snap.b", 4)
	b := scenario.New("test.snap.a", 4)
	put(t, a, "x", 1)
	put(t, b, "y", 2)
	snap := scenario.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Fatalf("snapshot unsorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	seen := map[string]scenario.Stats{}
	for _, s := range snap {
		seen[s.Name] = s
	}
	if s, ok := seen["test.snap.a"]; !ok || s.Entries != 1 {
		t.Fatalf("snapshot missing test.snap.a or wrong entries: %+v", s)
	}
	if s, ok := seen["test.snap.b"]; !ok || s.Entries != 1 {
		t.Fatalf("snapshot missing test.snap.b or wrong entries: %+v", s)
	}
}
