package algebra

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/pattern"
	"xmlviews/internal/predicate"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

func TestExecuteCancelled(t *testing.T) {
	doc := xmltree.MustParseParen(`site(item(name "pen") item(name "ink"))`)
	v := &core.View{Name: "v1", Pattern: pattern.MustParse(`site(/item[id](/name[v]))`), DerivableParentIDs: true}
	st := view.NewStore(doc, []*core.View{v})
	plan := core.Scan(v)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExecuteWith(plan, st, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled execution returned %v, want context.Canceled", err)
	}
	// A live context leaves execution untouched.
	res, err := ExecuteWith(plan, st, Options{Ctx: context.Background()})
	if err != nil || res.Rel.Len() != 2 {
		t.Fatalf("live context must not disturb execution: %v", err)
	}
}

// TestUnionLeavesStoreExtentAlone executes a union whose first part is a
// bare scan — its relation is the store's shared extent — and requires the
// extent to come out unchanged.
func TestUnionLeavesStoreExtentAlone(t *testing.T) {
	doc := xmltree.MustParseParen(`site(item(name "pen") item(name "ink"))`)
	v := &core.View{Name: "v1", Pattern: pattern.MustParse(`site(/item[id](/name[v]))`)}
	st := view.NewStore(doc, []*core.View{v})
	plan := &core.Plan{Op: core.OpUnion, Parts: []*core.Plan{core.Scan(v), core.Scan(v)}}
	for i := 0; i < 3; i++ {
		res, err := Execute(plan, st)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rel.Len() != 2 {
			t.Fatalf("run %d: union has %d distinct rows, want 2", i, res.Rel.Len())
		}
		if n := st.Relation(v).Len(); n != 2 {
			t.Fatalf("run %d: the store's extent grew to %d rows", i, n)
		}
	}
}

// countdownCtx is a context whose Done channel closes on the k-th call to
// Done: it cancels execution at exactly the k-th poll, wherever that poll
// sits — inside a kernel's loop as well as between operators.
type countdownCtx struct {
	context.Context
	mu    sync.Mutex
	k     int // 0 never cancels
	polls int
	done  chan struct{}
}

func newCountdownCtx(k int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), k: k, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	if c.polls == c.k {
		close(c.done)
	}
	return c.done
}

func (c *countdownCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestExecuteCancelledMidKernel cancels each of several large plans at
// every poll it makes, in turn, and requires context.Canceled and no
// relation every time: a kernel that stops early must never leak its
// partial output as a result.
func TestExecuteCancelledMidKernel(t *testing.T) {
	const n = 3*cancelCheckEvery + 100
	d := xmltree.NewDocument("r")
	for i := 0; i < n; i++ {
		a := d.Root.AddChild("a", "")
		if i%2 == 0 { // odd a's stay childless: the outer join pads them
			a.AddChild("b", fmt.Sprintf("%d", i%10))
		}
	}
	va := &core.View{Name: "va", Pattern: pattern.MustParse(`r(/a[id])`)}
	vab := &core.View{Name: "vab", Pattern: pattern.MustParse(`r(/a[id](?/b[v]))`)}
	vb := &core.View{Name: "vb", Pattern: pattern.MustParse(`r(//b[id,v])`)}
	all := &core.View{Name: "all", Pattern: pattern.MustParse(`r(//*[id,l,v])`)}
	st := view.NewStore(d, []*core.View{va, vab, vb, all})
	sel := &core.Plan{Op: core.OpSelectValue, Pred: predicate.MustParse("v<8"), Slot: 0,
		Input: &core.Plan{Op: core.OpSelectLabel, Label: "b", Slot: 0, Input: core.Scan(all)}}
	outer := core.NewJoin(core.JoinParent, false, core.Scan(va), 0, core.Scan(vb), 0)
	outer.Outer = true
	for _, c := range []struct {
		name   string
		plan   *core.Plan
		st     Reader
		vector func(*ExecStats) bool // the vectorized kernel that must run
	}{
		{"id join", core.NewJoin(core.JoinID, false, core.Scan(va), 0, core.Scan(vab), 0), st, nil},
		{"ancestor join", core.NewJoin(core.JoinAncestor, false, core.Scan(va), 0, core.Scan(vb), 0), rowPath{st}, nil},
		{"outer join", outer, rowPath{st}, nil},
		{"vectorized selection chain", sel, st, func(xs *ExecStats) bool { return xs.VecSelectValue > 0 }},
		{"pruned join scan", core.NewJoin(core.JoinAncestor, false, core.Scan(va), 0, core.Scan(vb), 0), st,
			func(xs *ExecStats) bool { return xs.VecJoinPrunes > 0 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			live := newCountdownCtx(0)
			xs := &ExecStats{}
			res, err := ExecuteWith(c.plan, c.st, Options{Ctx: live, Stats: xs})
			if err != nil || res.Rel.Len() == 0 {
				t.Fatalf("uncancelled run: %v", err)
			}
			if c.vector != nil && !c.vector(xs) {
				t.Fatalf("the vectorized kernel did not run: %+v", xs)
			}
			if live.polls < 4 {
				t.Fatalf("only %d polls over %d rows", live.polls, n)
			}
			for k := 1; k <= live.polls; k++ {
				res, err := ExecuteWith(c.plan, c.st, Options{Ctx: newCountdownCtx(k)})
				if !errors.Is(err, context.Canceled) || res != nil {
					t.Fatalf("cancelled at poll %d of %d: result %v, error %v", k, live.polls, res != nil, err)
				}
			}
		})
	}
}
