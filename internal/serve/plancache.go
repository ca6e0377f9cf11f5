package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"xmlviews/internal/core"
	"xmlviews/internal/cost"
)

// errPlanPanic is what flight waiters observe when the leader's
// computation panicked before producing a verdict.
var errPlanPanic = errors.New("serve: plan computation panicked")

// planCache is a bounded LRU of rewriting results keyed by the query's
// canonical pattern text. Negatives are cached too — "no equivalent
// rewriting exists" (nil plan), "unsatisfiable under the summary", and
// "the search gave up at its budget" — so hopeless queries don't re-run
// the search. The last one holds only for the epoch whose search produced
// it: the search proved nothing, so a later epoch searches again.
//
// The cache also deduplicates concurrent misses: compute runs the search
// once per key while every other request for the same key waits for that
// leader's verdict (per-key singleflight), so a thundering herd on a cold
// cache costs one rewrite, not one per request.
type planCache struct {
	mu      sync.Mutex
	m       map[string]*list.Element
	lru     list.List // front = most recently used
	cap     int
	flights map[string]*flightCall
}

// cachedPlan is one rewriting verdict: the chosen plan with its estimated
// cost and the number of alternatives the search produced, or one of the
// three negative outcomes.
type cachedPlan struct {
	plan          *core.Plan
	unsatisfiable bool
	// exhausted marks a search that a budget ended with no rewriting, run
	// at epoch; it answers only requests at that epoch.
	exhausted bool
	epoch     int64
	// cost is the chosen plan's estimated cost (-1 when no estimate was
	// possible); alternatives is how many rewritings ChooseBest considered.
	cost         float64
	alternatives int
	// res is the search's result and est the estimator plan and cost were
	// picked under. The cache outlives an epoch whose summary keeps its
	// shape, but statistics move with every commit: a hit under another
	// estimator redoes only the pick over res.
	res *core.RewriteResult
	est *cost.Estimator
	// execPath records which execution path the plan's most recent run
	// took ("vectorized" or "row"); empty until the plan first executes.
	execPath string
}

type planEntry struct {
	key string
	val cachedPlan
}

// flightCall is one in-progress computation; done is closed when val/err
// are set.
type flightCall struct {
	done chan struct{}
	val  cachedPlan
	err  error
}

// defaultPlanCacheCap bounds the plan cache when the caller passes <= 0.
const defaultPlanCacheCap = 256

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = defaultPlanCacheCap
	}
	return &planCache{m: map[string]*list.Element{}, cap: capacity, flights: map[string]*flightCall{}}
}

// get returns the cached verdict for the key and whether an entry usable
// at epoch exists. The entry's plan tree is shared with every other hit on
// the key: callers must not mutate it (TestCachedPlanServedIdentically).
func (c *planCache) get(key string, epoch int64) (cachedPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(key, epoch)
}

// lookupLocked returns the entry for key, dropping it instead when it is
// an exhausted verdict of another epoch.
func (c *planCache) lookupLocked(key string, epoch int64) (cachedPlan, bool) {
	el, ok := c.m[key]
	if !ok {
		return cachedPlan{}, false
	}
	v := el.Value.(*planEntry).val
	if v.exhausted && v.epoch != epoch {
		c.lru.Remove(el)
		delete(c.m, key)
		return cachedPlan{}, false
	}
	c.lru.MoveToFront(el)
	return v, true
}

// putLocked inserts a verdict; the only writer is compute's flight
// teardown (callers hold mu), so every cache fill goes through the
// singleflight path.
func (c *planCache) putLocked(key string, v cachedPlan) {
	if el, ok := c.m[key]; ok {
		el.Value.(*planEntry).val = v
		c.lru.MoveToFront(el)
		return
	}
	c.m[key] = c.lru.PushFront(&planEntry{key: key, val: v})
	for len(c.m) > c.cap {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.m, last.Value.(*planEntry).key)
	}
}

// compute returns the verdict for the key, running fn at most once across
// concurrent callers: the first caller becomes the leader and computes;
// the rest wait on the leader's result or their own context. A successful
// verdict is stored in the LRU before waiters wake. leader reports whether
// this caller ran fn itself — when a leader's context is cancelled
// mid-search its waiters receive the cancellation error and may retry
// (the dead flight is removed first, so a retry elects a new leader).
func (c *planCache) compute(ctx context.Context, key string, epoch int64, fn func() (cachedPlan, error)) (val cachedPlan, leader bool, err error) {
	c.mu.Lock()
	if v, ok := c.lookupLocked(key, epoch); ok {
		// Filled while this request was parked on the mutex.
		c.mu.Unlock()
		return v, false, nil
	}
	if fc, ok := c.flights[key]; ok {
		c.mu.Unlock()
		if ctx == nil {
			<-fc.done
			return fc.val, false, fc.err
		}
		select {
		case <-fc.done:
			return fc.val, false, fc.err
		case <-ctx.Done():
			return cachedPlan{}, false, ctx.Err()
		}
	}
	fc := &flightCall{done: make(chan struct{})}
	c.flights[key] = fc
	c.mu.Unlock()

	// The flight must be torn down even if fn panics (net/http recovers
	// handler panics and keeps the server alive): a leaked entry would
	// wedge every future request for this key on a done channel that
	// never closes.
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if fc.err == nil {
			c.putLocked(key, fc.val)
		}
		c.mu.Unlock()
		close(fc.done)
	}()
	// Pre-set the error so waiters observe a failure, not an empty
	// verdict, if fn panics before assigning.
	fc.err = errPlanPanic
	fc.val, fc.err = fn()
	return fc.val, true, fc.err
}

// repick stores a verdict re-picked from the cached one's search under a
// newer estimator. An entry evicted or refilled by another search is left
// alone.
func (c *planCache) repick(key string, v cachedPlan) {
	c.mu.Lock()
	if el, ok := c.m[key]; ok && el.Value.(*planEntry).val.res == v.res {
		el.Value.(*planEntry).val = v
	}
	c.mu.Unlock()
}

// recordExecPath notes which execution path the cached plan's latest run
// took, so explain answers and operators can see whether a plan actually
// runs vectorized. A key evicted (or never cached) is a no-op.
func (c *planCache) recordExecPath(key, path string) {
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		el.Value.(*planEntry).val.execPath = path
	}
	c.mu.Unlock()
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
