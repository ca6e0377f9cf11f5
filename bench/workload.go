package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"sync"

	"xmlviews/internal/maintain"
	"xmlviews/internal/nodeid"
	"xmlviews/internal/xmltree"
)

// Workload names: the keys of BENCHMARK.json.
const (
	warmRead    = "warm_read"
	coldPlan    = "cold_plan"
	writeStream = "write_stream"
	mixedRW     = "mixed_rw"
)

var workloadNames = []string{warmRead, coldPlan, writeStream, mixedRW}

// Query classes: the unit the layer trace and the unattributed-time check
// are reported per.
const (
	classScan   = "scan"
	classSelect = "select"
	classJoin   = "join"
	classPage   = "page"
	classCount  = "count"
	classUpdate = "update"
)

// request is one generated operation. The daemon only ever sees method,
// target and body; the rest is the harness's bookkeeping for the oracle.
type request struct {
	class string
	// shape identifies the request up to its constants: requests of one
	// shape do the same work, so their timings may share a median.
	shape  string
	method string
	target string // path + query string
	body   []byte

	// Queries.
	query  string // pattern text
	limit  int    // -1: the daemon's default window
	offset int
	// itemCount marks an unfiltered scan of the item views: its row count
	// moves with acked item inserts and deletes, so reads at epochs > 0 are
	// checked against the ack log instead of the epoch-0 answer.
	itemCount bool

	// Updates: the net change in item count once acked.
	itemDelta int
}

// bytes is the wire image used by the determinism tests.
func (r *request) bytes() []byte {
	return append([]byte(r.method+" "+r.target+"\n"), r.body...)
}

func queryRequest(class, query string, limit, offset int, itemCount bool) *request {
	v := url.Values{"q": {query}}
	if limit >= 0 {
		v.Set("limit", strconv.Itoa(limit))
	}
	if offset > 0 {
		v.Set("offset", strconv.Itoa(offset))
	}
	target := "/query?" + v.Encode()
	return &request{class: class, shape: target, method: "GET", target: target,
		query: query, limit: limit, offset: offset, itemCount: itemCount}
}

// poolEntry is one slot of the warm pool.
type poolEntry struct {
	class     string
	query     string
	limit     int
	offset    int
	itemCount bool
}

const (
	itemScan   = `site(//item[id](/name[v]))`
	personScan = `site(//person[id](/name[v]))`
	closedScan = `site(//closed_auction[id](/price[v]))`
	// Two-view joins: VBID⋈VOPEN (nested edge) and VPERSON⋈VINCOME
	// (optional edge).
	openJoin   = `site(//open_auction[id](/initial[v] n?/bidder[id](/increase[v])))`
	personJoin = `site(//person[id](/name[v] ?/profile(/income[v])))`
	// Value selections the vectorized path runs on dictionary codes: the
	// first matches a handful of rows and lets zone maps skip most blocks,
	// the second keeps most of the extent.
	selectiveSel   = `site(//item[id](/name[v]{v="gold pen"}))`
	unselectiveSel = `site(//open_auction[id](/initial[v]{v>10}))`
)

// warmPool is the fixed query pool of warm_read and mixed_rw: 13 slots over
// 7 distinct plans, all cached during warm-up. Requests are drawn in
// shuffled blocks holding every slot once, so the class mix of a run is
// exact, not sampled. The slot count is odd and the pool is laid out so the
// median and the 90th percentile of the mixture each fall inside one
// class's latency distribution, not in the gap between two classes, where a
// one-request change in the mix would move them by tens of milliseconds
// (README, "why the pool has 13 slots").
var warmPool = []poolEntry{
	{classScan, itemScan, -1, 0, true},
	{classScan, personScan, -1, 0, false},
	{classScan, closedScan, -1, 0, false},
	{classSelect, selectiveSel, -1, 0, false},
	{classSelect, unselectiveSel, -1, 0, false},
	{classJoin, openJoin, -1, 0, false},
	{classJoin, personJoin, -1, 0, false},
	{classPage, itemScan, 50, 0, true},
	{classPage, itemScan, 50, 2950, true},
	{classPage, personScan, 50, 500, false},
	{classPage, personScan, 50, 1500, false},
	{classPage, closedScan, 50, 450, false},
	{classCount, itemScan, 0, 0, true},
}

func (p poolEntry) request() *request {
	return queryRequest(p.class, p.query, p.limit, p.offset, p.itemCount)
}

// generator yields a client's request stream. Streams are functions of the
// seed and the client index alone.
type generator interface {
	next() *request
}

// poolGen cycles a pool in seeded shuffled blocks.
type poolGen struct {
	rng   *rand.Rand
	pool  []poolEntry
	block []int
	pos   int
}

func newPoolGen(seed int64, client int, pool []poolEntry) *poolGen {
	return &poolGen{rng: rand.New(rand.NewSource(clientSeed(seed, client))), pool: pool}
}

func clientSeed(seed int64, client int) int64 { return seed*1000003 + int64(client) }

func (g *poolGen) next() *request {
	if g.pos == len(g.block) {
		g.block = g.rng.Perm(len(g.pool))
		g.pos = 0
	}
	e := g.pool[g.block[g.pos]]
	g.pos++
	return e.request()
}

// coldTemplate is one cold_plan query shape. Every instance carries a
// never-seen constant, so its canonical text — the plan-cache key — is new
// and the daemon runs the full rewriting search. Each shape was validated
// to finish cold within 1s in bounded memory at -maxrewritings 2
// (`-validate`); README lists the shapes that are not and why.
type coldTemplate struct {
	class   string
	format  string // one %s: the constant
	numeric bool
}

// coldTemplates is ordered by cold latency (≈3, 10, 95, 230, 320 ms on the
// baseline): with balanced blocks the median falls inside the third shape's
// distribution and the 90th percentile inside the fifth's.
var coldTemplates = []coldTemplate{
	{classSelect, `site(//closed_auction[id](/price[v]{v>%s}))`, true},
	{classSelect, `site(//person[id](/name[v]{v="%s"}))`, false},
	{classSelect, `site(//item[id](/name[v]{v="%s"}))`, false},
	{classJoin, `site(//person[id](/name[v]{v="%s"} ?/profile(/income[v])))`, false},
	{classJoin, `site(//open_auction[id](/initial[v]{v>%s} n?/bidder[id](/increase[v])))`, true},
}

// coldLimit keeps cold_plan responses small: the work is in the search,
// not in encoding rows.
const coldLimit = 20

// coldGen yields never-repeating queries: the k-th request of client c
// carries the global index k*clients+c in its constant, so no two requests
// of a run — across clients, warm-up included — share a plan-cache key.
type coldGen struct {
	rng     *rand.Rand
	client  int
	clients int
	names   []string // real name values, so early constants select rows
	offset  int      // seed-derived start in names, shared by all clients
	k       int
	block   []int
	pos     int
}

func newColdGen(seed int64, client, clients int, names []string) *coldGen {
	return &coldGen{rng: rand.New(rand.NewSource(clientSeed(seed, client))),
		client: client, clients: clients, names: names,
		offset: rand.New(rand.NewSource(seed)).Intn(len(names))}
}

func (g *coldGen) next() *request {
	if g.pos == len(g.block) {
		g.block = g.rng.Perm(len(coldTemplates))
		g.pos = 0
	}
	t := coldTemplates[g.block[g.pos]]
	g.pos++
	idx := g.k*g.clients + g.client
	g.k++
	var c string
	switch {
	case t.numeric:
		// A seeded threshold with the unique index in its low digits.
		c = fmt.Sprintf("%d.%06d", 1+g.rng.Intn(90), idx)
	case idx < len(g.names):
		// Early constants are real names, so the answers are not all empty.
		c = g.names[(idx+g.offset)%len(g.names)]
	default:
		c = g.names[idx%len(g.names)] + " " + strconv.Itoa(idx)
	}
	req := queryRequest(t.class, fmt.Sprintf(t.format, c), coldLimit, 0, false)
	req.shape = t.format
	return req
}

// nameValues collects the distinct item and person names of a document,
// sorted: the constants cold_plan's string predicates draw from.
func nameValues(doc *xmltree.Document) []string {
	seen := map[string]bool{}
	doc.Root.Walk(func(n *xmltree.Node) bool {
		if n.Label == "name" && n.Parent != nil && (n.Parent.Label == "item" || n.Parent.Label == "person") {
			seen[n.Value] = true
		}
		return true
	})
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// shadow is the harness's copy of the document the daemon maintains. A
// writer applies each update to it before sending, which yields the Dewey
// identifiers the daemon will allocate (both run the same xmltree code):
// the only way a client can name a node it inserted earlier. Writers work
// under disjoint region subtrees, so their interleaving at the daemon does
// not change any identifier.
type shadow struct {
	mu  sync.Mutex
	doc *xmltree.Document
}

// regionID returns the identifier of the i-th region element (africa,
// asia, …) under site/regions.
func (s *shadow) regionID(i int) (nodeid.ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.doc.Root.Children {
		if c.Label == "regions" {
			if i >= len(c.Children) {
				return nil, fmt.Errorf("document has %d regions, writer %d needs its own", len(c.Children), i)
			}
			return c.Children[i].ID, nil
		}
	}
	return nil, fmt.Errorf("document has no regions element")
}

// updateGen yields single-op update batches: 50% insert of a small item
// subtree under the writer's region, 25% settext on the name of an item
// this writer inserted, 25% delete of such an item. A settext or delete
// drawn while the writer has no live insert becomes an insert. Original
// items are never touched, so every pool query with a predicate keeps its
// epoch-0 answer and only the unfiltered item scans move — by exactly the
// acked net inserts.
type updateGen struct {
	rng    *rand.Rand
	client int
	sh     *shadow
	region nodeid.ID
	live   []nodeid.ID // inserted and not yet deleted item roots
	n      int
}

func newUpdateGen(seed int64, client int, sh *shadow) (*updateGen, error) {
	region, err := sh.regionID(client)
	if err != nil {
		return nil, err
	}
	return &updateGen{rng: rand.New(rand.NewSource(clientSeed(seed, client))),
		client: client, sh: sh, region: region}, nil
}

func (g *updateGen) next() *request {
	g.n++
	roll := g.rng.Intn(4)
	var u xmltree.Update
	delta := 0
	switch {
	case roll < 2 || len(g.live) == 0:
		sub := xmltree.MustParseParen(fmt.Sprintf(
			`item(@id "bench%d_%d" location "bench" quantity "1" name "bench %d")`, g.client, g.n, g.n))
		u = xmltree.Update{Kind: xmltree.UpdateInsert, Parent: g.region, Subtree: sub}
		delta = 1
	case roll == 2:
		u = xmltree.Update{Kind: xmltree.UpdateSetValue, Value: fmt.Sprintf("bench %d", g.n),
			Target: g.nameOf(g.live[g.rng.Intn(len(g.live))])}
	default:
		i := g.rng.Intn(len(g.live))
		u = xmltree.Update{Kind: xmltree.UpdateDelete, Target: g.live[i]}
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		delta = -1
	}
	g.sh.mu.Lock()
	node, err := g.sh.doc.ApplyUpdate(u)
	g.sh.mu.Unlock()
	if err != nil {
		// The generator only names nodes it put there itself.
		panic(fmt.Sprintf("bench: shadow rejected generated update: %v", err))
	}
	if u.Kind == xmltree.UpdateInsert {
		g.live = append(g.live, node.ID)
	}
	body, err := maintain.EncodeUpdates([]xmltree.Update{u})
	if err != nil {
		panic(fmt.Sprintf("bench: encoding generated update: %v", err))
	}
	return &request{class: classUpdate, shape: u.Kind.String(), method: "POST", target: "/update", body: body, itemDelta: delta}
}

// nameOf returns the identifier of the name child of an inserted item.
func (g *updateGen) nameOf(item nodeid.ID) nodeid.ID {
	g.sh.mu.Lock()
	defer g.sh.mu.Unlock()
	n := g.sh.doc.FindByID(item)
	for _, c := range n.Children {
		if c.Label == "name" {
			return c.ID
		}
	}
	panic("bench: inserted item has no name child")
}
