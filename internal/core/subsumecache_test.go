package core

import (
	"fmt"
	"testing"

	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
)

// TestSubsumeCacheSummaryScoped checks that a cache binds to the first
// summary it serves and bypasses (rather than mis-serves) any other:
// the keys are summary-local node indices, so cross-summary hits would
// return wrong verdicts.
func TestSubsumeCacheSummaryScoped(t *testing.T) {
	s1 := summary.MustParse("a(b(c))")
	s2 := summary.MustParse("x(y z)")
	c := NewSubsumeCache(0)
	if !c.bind(s1) {
		t.Fatal("fresh cache must bind its first summary")
	}
	if c.bind(s2) {
		t.Fatal("bound cache must reject a different summary")
	}
	if !c.bind(s1) {
		t.Fatal("bound cache must keep serving its owner")
	}
	// Sharing one ContainOptions across summaries stays correct: the
	// second summary's decisions bypass the bound cache.
	opts := DefaultContainOptions()
	opts.Subsume = NewSubsumeCache(0)
	p1 := pattern.MustParse("a(//c[id])")
	q1 := pattern.MustParse("a(/b(/c[id]))")
	ok, _, err := ContainedWith(p1, []*pattern.Pattern{q1}, s1, opts)
	if err != nil || !ok {
		t.Fatalf("s1 containment: %v %v", ok, err)
	}
	p2 := pattern.MustParse("x(/y[id])")
	ok, _, err = ContainedWith(p2, []*pattern.Pattern{p2}, s2, opts)
	if err != nil || !ok {
		t.Fatalf("s2 self-containment with foreign cache: %v %v", ok, err)
	}
}

func TestSubsumeCacheLRUEviction(t *testing.T) {
	c := NewSubsumeCache(stripeShards) // one slot per shard
	for i := 0; i < 10*stripeShards; i++ {
		c.put(fmt.Sprintf("key-%d", i), i%2 == 0)
	}
	if n := c.Len(); n > stripeShards {
		t.Fatalf("cache exceeded capacity: %d > %d", n, stripeShards)
	}
	c2 := NewSubsumeCache(0)
	c2.put("k", true)
	if v, ok := c2.get("k"); !ok || !v {
		t.Fatal("cache lost a fresh entry")
	}
	if _, ok := c2.get("absent"); ok {
		t.Fatal("phantom cache hit")
	}
}
