package lint

// Facts is phase 1's per-function summary layer, modeled on go/analysis
// facts but computed eagerly over the whole program (the module is small
// enough that a fixpoint over every function costs less than the type
// check that precedes it). Phase 2 analyzers consume facts across
// package boundaries: ctxpoll asks "does this helper poll cancellation".
//
// All facts are keyed by funcKey (pkgpath.Func / pkgpath.Recv.Method).
type Facts struct {
	// PollsCtx marks functions whose body (or a callee's, outside
	// function literals) reaches a cancellation poll.
	PollsCtx map[string]bool
}

// Facts returns the program's fact set, computing it on first use.
func (p *Program) Facts() *Facts {
	p.factsOnce.Do(func() { p.facts = computeFacts(p) })
	return p.facts
}

func computeFacts(prog *Program) *Facts {
	facts := &Facts{PollsCtx: map[string]bool{}}
	g := prog.CallGraph()
	for _, key := range g.Keys() {
		node := g.Nodes[key]
		if node.Decl.Body != nil && containsPoll(node.Pkg.Info, node.Decl.Body) {
			facts.PollsCtx[key] = true
		}
	}

	// PollsCtx fixpoint: a call (outside function literals, which may run
	// on another goroutine) to a polling function polls.
	for changed := true; changed; {
		changed = false
		for _, key := range g.Keys() {
			if facts.PollsCtx[key] {
				continue
			}
			for _, e := range g.Nodes[key].Out {
				if !e.InFuncLit && facts.PollsCtx[e.Callee] {
					facts.PollsCtx[key] = true
					changed = true
					break
				}
			}
		}
	}
	return facts
}
