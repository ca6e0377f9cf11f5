package core

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"xmlviews/internal/summary"
)

// SubsumeCache memoizes summary-implication decisions (summaryImplies):
// whether, under a given summary, every document match of one erased
// subtree below an anchor path yields a match of another. The decision is
// a full 0-ary containment test, so repeated (anchor, subtree, subtree)
// triples are well worth caching.
//
// The cache is scoped to one summary: callers create one per summary (or
// per containment session) and hand it through ContainOptions. This
// replaces an earlier package-global map keyed by *summary.Summary, which
// pinned every summary ever used in memory and serialized all lookups
// behind a single mutex. A SubsumeCache is bounded (LRU eviction) and
// striped — a key hashes to one of stripeShards shards, each with its own
// mutex — so concurrent searches (the daemon's HTTP requests share one
// while the summary's shape holds) can share an instance without
// contention or unbounded growth. Every cached value is a pure function
// of its key, so a hit and a recomputation agree.
//
// The scoping is enforced: the cache binds to the first summary it is
// used with, and lookups under any other summary bypass it (keys are
// summary-local node indices, so cross-summary hits would be wrong).
type SubsumeCache struct {
	owner  atomic.Pointer[summary.Summary]
	shards [stripeShards]subsumeShard
}

const stripeShards = 32

var stripeSeed = maphash.MakeSeed()

func stripeOf(key string) int {
	return int(maphash.String(stripeSeed, key) % stripeShards)
}

// bind reports whether the cache may serve decisions for s, claiming the
// cache for s when it is still unbound.
func (c *SubsumeCache) bind(s *summary.Summary) bool {
	if owner := c.owner.Load(); owner != nil {
		return owner == s
	}
	return c.owner.CompareAndSwap(nil, s) || c.owner.Load() == s
}

type subsumeShard struct {
	mu  sync.Mutex
	m   map[string]*list.Element
	lru list.List // front = most recently used
	cap int
}

type subsumeEntry struct {
	key string
	val bool
}

// DefaultSubsumeCap is the default total capacity of a SubsumeCache.
const DefaultSubsumeCap = 1 << 14

// NewSubsumeCache creates a bounded cache; capacity <= 0 uses
// DefaultSubsumeCap. The capacity is split evenly across shards.
func NewSubsumeCache(capacity int) *SubsumeCache {
	if capacity <= 0 {
		capacity = DefaultSubsumeCap
	}
	perShard := capacity / stripeShards
	if perShard < 1 {
		perShard = 1
	}
	c := &SubsumeCache{}
	for i := range c.shards {
		c.shards[i].m = map[string]*list.Element{}
		c.shards[i].cap = perShard
	}
	return c
}

// Len returns the number of cached decisions.
func (c *SubsumeCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

func (c *SubsumeCache) get(key string) (val, ok bool) {
	sh := &c.shards[stripeOf(key)]
	sh.mu.Lock()
	if el, hit := sh.m[key]; hit {
		sh.lru.MoveToFront(el)
		val, ok = el.Value.(subsumeEntry).val, true
	}
	sh.mu.Unlock()
	return val, ok
}

func (c *SubsumeCache) put(key string, val bool) {
	sh := &c.shards[stripeOf(key)]
	sh.mu.Lock()
	if el, hit := sh.m[key]; hit {
		sh.lru.MoveToFront(el)
		el.Value = subsumeEntry{key, val}
	} else {
		sh.m[key] = sh.lru.PushFront(subsumeEntry{key, val})
		if sh.lru.Len() > sh.cap {
			oldest := sh.lru.Back()
			sh.lru.Remove(oldest)
			delete(sh.m, oldest.Value.(subsumeEntry).key)
		}
	}
	sh.mu.Unlock()
}
