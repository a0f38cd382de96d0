package campaign

import (
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// Cache bounds. A plan entry is keyed partly by max_sessions, which comes
// from untrusted specs, and a widebus64 library of 200 defects holds about
// 6.6 MiB, so neither cache may grow with the number of distinct specs.
const (
	planCacheSize    = 16
	libraryCacheSize = 4
)

// lru is a size-bounded map that evicts its least recently used entry. Its
// values are shared by every caller that gets them and must not be mutated.
// Safe for concurrent use.
type lru[K comparable, V any] struct {
	size                    int
	hits, misses, evictions *obs.Counter

	mu    sync.Mutex
	clock uint64 // bumped on every use; an entry's stamp orders recency
	items map[K]*lruEntry[V]
}

type lruEntry[V any] struct {
	val  V
	used uint64
}

func newLRU[K comparable, V any](size int, hits, misses, evictions *obs.Counter) *lru[K, V] {
	return &lru[K, V]{size: size, hits: hits, misses: misses, evictions: evictions,
		items: make(map[K]*lruEntry[V], size)}
}

// get returns the value cached under k, or builds, caches and returns one;
// hit reports whether it was cached. Two callers that miss on k at once both
// build, and the first value stored is the one both get. Building runs
// without the lock held.
func (c *lru[K, V]) get(k K, build func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.items[k]; ok {
		c.clock++
		e.used = c.clock
		c.mu.Unlock()
		c.hits.Inc()
		return e.val, true, nil
	}
	c.mu.Unlock()
	c.misses.Inc()
	if v, err = build(); err != nil {
		return v, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	if e, ok := c.items[k]; ok {
		e.used = c.clock
		return e.val, false, nil // lost a build race; keep the first
	}
	if len(c.items) >= c.size {
		var oldest K
		stamp := ^uint64(0)
		for key, e := range c.items {
			if e.used < stamp {
				oldest, stamp = key, e.used
			}
		}
		delete(c.items, oldest)
		c.evictions.Inc()
	}
	c.items[k] = &lruEntry[V]{val: v, used: c.clock}
	return v, false, nil
}

// planKey is everything a generated plan depends on: the target and the
// spec's generation config. The bus under test counts only when generation
// is restricted to it, so the address- and data-bus jobs of one config
// share an entry, as they share a golden runner.
type planKey struct {
	target      string
	compaction  bool
	maxSessions int
	only        string
}

type generatedPlan struct {
	plan *core.Plan
	hash string
}

// PlanCache is a bounded cache of generated self-test plans and their
// PlanHash, keyed by target and generation config. Its Resolve is
// campaign.Resolve, except that a generation config it has seen before
// costs no plan generation and no hashing. Inline plans are parsed on every
// call, and the filtered plans of minimize verification rounds are never
// cached. The plans it hands out are shared by concurrent callers and must
// not be mutated.
type PlanCache struct {
	lru *lru[planKey, generatedPlan]
}

// NewPlanCache builds an empty plan cache whose hit, miss and eviction
// counters are registered in reg as prefix+"plan_cache_{hits,misses,
// evictions}_total".
func NewPlanCache(reg *obs.Registry, prefix string) *PlanCache {
	return &PlanCache{lru: newLRU[planKey, generatedPlan](planCacheSize,
		reg.Counter(prefix+"plan_cache_hits_total", "self-test plan cache hits (plan generation skipped)"),
		reg.Counter(prefix+"plan_cache_misses_total", "self-test plan cache misses (plan generated and hashed)"),
		reg.Counter(prefix+"plan_cache_evictions_total", "self-test plans evicted from the bounded plan cache"))}
}

// Resolve is campaign.Resolve with generated plans answered from the cache.
func (c *PlanCache) Resolve(spec Spec) (*Resolved, error) {
	r, _, err := resolve(spec, c)
	return r, err
}
