package scenario

import (
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// Cache is one tier of the warm-artifact store: a concurrency-safe,
// size-bounded LRU with singleflight computation.
//
//   - Singleflight: concurrent Do calls for one key share a single compute;
//     every caller gets the same value (and the same error — deterministic
//     failures are as cacheable as results, and a compute that panics is
//     recorded as one).
//   - LRU: insertion beyond the entry cap evicts the least-recently-used
//     entries. Values are immutable shared pointers, so eviction only drops
//     the cache's reference — consumers holding an evicted artifact keep a
//     perfectly valid one; a later request simply recomputes.
//
// Every cached artifact is a pure function of its key, so an entry never
// goes stale. Counters (hits, misses, evictions) feed the /stats probe of
// cmd/servesim; misses count exactly the computations started, which is what
// the request-coalescing tests pin.
type Cache struct {
	name string

	mu      sync.Mutex
	cap     int
	entries map[string]*entry
	// Intrusive LRU list: mru is the most-, lru the least-recently-used.
	mru, lru *entry

	hits, misses, evictions int64
}

// entry is one cached artifact (or one in-flight computation of it).
type entry struct {
	key        string
	prev, next *entry

	once sync.Once
	val  any
	err  error
	done atomic.Bool
}

// registry lists every cache built by New, for the aggregated stats probe.
var registry struct {
	mu     sync.Mutex
	caches []*Cache
}

// New builds a cache tier and registers it for Snapshot. capacity bounds the
// entry count (evicting least-recently-used beyond it); capacity <= 0 means
// unbounded — reserve that for artifact tiers whose key space is small and
// closed.
func New(name string, capacity int) *Cache {
	c := &Cache{name: name, cap: capacity, entries: make(map[string]*entry)}
	registry.mu.Lock()
	registry.caches = append(registry.caches, c)
	registry.mu.Unlock()
	return c
}

// Name returns the tier name used in stats.
func (c *Cache) Name() string { return c.name }

// Do returns the artifact for key, computing it with fn on a miss.
// Concurrent calls for the same key coalesce onto one fn invocation. The
// returned value is shared: callers must treat it as immutable. A panic in
// fn becomes the entry's error, carrying the panic value and stack, so every
// caller of the key gets that error rather than an empty artifact.
//
//lint:cold
func (c *Cache) Do(key string, fn func() (any, error)) (any, error) {
	e := c.acquire(key)
	e.once.Do(func() {
		defer func() {
			if v := recover(); v != nil {
				e.val, e.err = nil, fmt.Errorf("scenario: %s %q panicked: %v\n%s", c.name, key, v, debug.Stack())
			}
			e.done.Store(true)
		}()
		e.val, e.err = fn()
	})
	return e.val, e.err
}

// Get is the warm replay path: it returns the completed artifact for key,
// or ok=false on a miss, an entry still being computed or an entry holding
// an error (including a recovered panic), which Do reports. It allocates
// nothing.
//
//lint:steady
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	if !e.done.Load() || e.err != nil {
		// In flight (the cold path owns it; Do will coalesce onto it) or
		// failed (no artifact to replay; Do returns the recorded error).
		c.mu.Unlock()
		return nil, false
	}
	c.hits++
	c.touch(e)
	v := e.val
	c.mu.Unlock()
	return v, true
}

// acquire resolves key to its live entry, creating (and inserting) a fresh
// one on miss and evicting beyond the cap.
//
//lint:cold
func (c *Cache) acquire(key string) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.touch(e)
		return e
	}
	c.misses++
	e := &entry{key: key}
	c.entries[key] = e
	c.pushFront(e)
	c.evict()
	return e
}

// evict drops least-recently-used entries until the cap is respected. An
// evicted in-flight entry keeps computing for the callers already coalesced
// onto it; only the cache's reference is dropped.
func (c *Cache) evict() {
	for c.cap > 0 && len(c.entries) > c.cap {
		c.evictions++
		c.remove(c.lru)
	}
}

// touch moves e to the most-recently-used position.
func (c *Cache) touch(e *entry) {
	if c.mru == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.mru
	if c.mru != nil {
		c.mru.prev = e
	}
	c.mru = e
	if c.lru == nil {
		c.lru = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.mru = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.lru = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) remove(e *entry) {
	delete(c.entries, e.key)
	c.unlink(e)
}

// SetCap rebounds the cache, evicting down to the new cap immediately.
// capacity <= 0 removes the bound.
func (c *Cache) SetCap(capacity int) {
	c.mu.Lock()
	c.cap = capacity
	c.evict()
	c.mu.Unlock()
}

// Reset drops every entry (counters keep accumulating). Tests use it to
// force fresh computations when comparing independent executions.
func (c *Cache) Reset() {
	c.mu.Lock()
	for c.lru != nil {
		c.remove(c.lru)
	}
	c.mu.Unlock()
}

// Len returns the live entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats is one tier's counter snapshot.
type Stats struct {
	Name      string `json:"name"`
	Cap       int    `json:"cap"`
	Entries   int    `json:"entries"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Evictions int64  `json:"evictions"`
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Name:      c.name,
		Cap:       c.cap,
		Entries:   len(c.entries),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// Snapshot returns every registered tier's stats sorted by name — a stable
// order for serialized probes (the ordered-map-emit discipline; the registry
// is a slice, but sorting makes the output independent of package
// initialization order too).
func Snapshot() []Stats {
	registry.mu.Lock()
	caches := make([]*Cache, len(registry.caches))
	copy(caches, registry.caches)
	registry.mu.Unlock()
	out := make([]Stats, 0, len(caches))
	for _, c := range caches {
		out = append(out, c.Stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
