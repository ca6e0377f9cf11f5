package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
)

// scanPlans builds n distinct single-scan plans.
func scanPlans(n int) []*Plan {
	out := make([]*Plan, n)
	for i := range out {
		out[i] = Scan(view(fmt.Sprintf("V%02d", i), `a(/b[id])`))
	}
	return out
}

func TestChooseBestPicksMinimum(t *testing.T) {
	plans := scanPlans(4)
	res := &RewriteResult{Rewritings: plans}
	costs := map[*Plan]float64{plans[0]: 40, plans[1]: 10, plans[2]: 30, plans[3]: 20}
	best, c, n := ChooseBest(res, func(p *Plan) (float64, error) { return costs[p], nil })
	if best != plans[1] || c != 10 || n != 4 {
		t.Fatalf("ChooseBest = (%v, %v, %d), want (plans[1], 10, 4)", best, c, n)
	}
}

func TestChooseBestDeterministicUnderPermutation(t *testing.T) {
	plans := scanPlans(6)
	// Two plans tie at the minimum; the tie must break on plan text, not
	// on discovery order.
	costs := map[*Plan]float64{
		plans[0]: 25, plans[1]: 10, plans[2]: 30,
		plans[3]: 10, plans[4]: 50, plans[5]: 17,
	}
	costOf := func(p *Plan) (float64, error) { return costs[p], nil }
	ref, refCost, _ := ChooseBest(&RewriteResult{Rewritings: plans}, costOf)
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		perm := append([]*Plan(nil), plans...)
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		got, gotCost, n := ChooseBest(&RewriteResult{Rewritings: perm}, costOf)
		if got != ref || gotCost != refCost || n != len(plans) {
			t.Fatalf("permutation %d chose %v (%v), reference %v (%v)", trial, got, gotCost, ref, refCost)
		}
	}
}

func TestChooseBestFallbacks(t *testing.T) {
	if best, _, n := ChooseBest(nil, nil); best != nil || n != 0 {
		t.Fatal("nil result must choose nothing")
	}
	if best, _, n := ChooseBest(&RewriteResult{}, nil); best != nil || n != 0 {
		t.Fatal("empty result must choose nothing")
	}
	plans := scanPlans(3)
	res := &RewriteResult{Rewritings: plans}
	// No cost function: first-found wins.
	if best, c, _ := ChooseBest(res, nil); best != plans[0] || !math.IsInf(c, 1) {
		t.Fatalf("without a cost function ChooseBest must fall back to the first rewriting, got %v (%v)", best, c)
	}
	// Every estimate failing: first-found wins too.
	boom := func(*Plan) (float64, error) { return 0, errors.New("no stats") }
	if best, c, _ := ChooseBest(res, boom); best != plans[0] || !math.IsInf(c, 1) {
		t.Fatalf("with failing estimates ChooseBest must fall back to the first rewriting, got %v (%v)", best, c)
	}
	// A failing estimate skips only that plan.
	partial := func(p *Plan) (float64, error) {
		if p == plans[0] {
			return 0, errors.New("no stats")
		}
		if p == plans[1] {
			return 5, nil
		}
		return 3, nil
	}
	if best, c, _ := ChooseBest(res, partial); best != plans[2] || c != 3 {
		t.Fatalf("ChooseBest must skip failing estimates, got %v (%v)", best, c)
	}
}

func TestRewriteCancelled(t *testing.T) {
	doc := summary.MustParse(`site(item(name))`)
	views := []*View{view("V1", `site(/item[id](/name[v]))`)}
	q := pattern.MustParse(`site(/item[id](/name[v]))`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultRewriteOptions()
	opts.Ctx = ctx
	if _, err := Rewrite(q, views, doc, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled rewrite returned %v, want context.Canceled", err)
	}
	// A live context leaves the search untouched.
	opts.Ctx = context.Background()
	res, err := Rewrite(q, views, doc, opts)
	if err != nil || len(res.Rewritings) == 0 {
		t.Fatalf("live context must not disturb the search: %v, %d rewritings", err, len(res.Rewritings))
	}
}
