// Package xmlviews is a Go implementation of "Structured Materialized
// Views for XML Queries" (Manolescu, Benzaken, Arion, Papakonstantinou;
// VLDB 2007 / INRIA report inria-00001233): containment and rewriting of
// extended tree pattern queries under structural summary (Dataguide)
// constraints, with materialized view storage and an algebraic executor.
//
// The package is a façade over the implementation packages:
//
//	internal/xmltree    XML data model (unranked labeled ordered trees)
//	internal/nodeid     Dewey structural identifiers
//	internal/summary    path summaries / enhanced Dataguides
//	internal/pattern    the extended tree pattern language
//	internal/predicate  value predicate formulas
//	internal/core       canonical models, containment, rewriting
//	internal/view       view materialization (in-memory and disk-backed)
//	internal/store      persistent columnar segments + catalog manifest
//	internal/maintain   incremental view maintenance under updates
//	internal/algebra    plan execution
//	internal/xquery     XQuery-subset front end
//	internal/serve      the xvserve HTTP query daemon
//
// # Quick start
//
//	doc, _ := xmlviews.ParseXML(file)
//	s := xmlviews.BuildSummary(doc)
//	v := xmlviews.NewView("v1", xmlviews.MustParsePattern(`site(//item[id](/name[v]))`))
//	q := xmlviews.MustParsePattern(`site(//item[id](/name[v]))`)
//	res, _ := xmlviews.Rewrite(q, []*xmlviews.View{v}, s)
//	store := xmlviews.NewStore(doc, []*xmlviews.View{v})
//	out, _ := xmlviews.Execute(res.Rewritings[0], store)
package xmlviews

import (
	"io"
	"net/http"

	"xmlviews/internal/algebra"
	"xmlviews/internal/core"
	"xmlviews/internal/cost"
	"xmlviews/internal/maintain"
	"xmlviews/internal/nrel"
	"xmlviews/internal/pattern"
	"xmlviews/internal/serve"
	"xmlviews/internal/store"
	"xmlviews/internal/summary"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
	"xmlviews/internal/xquery"
)

// Document is an XML document in the tree data model.
type Document = xmltree.Document

// Summary is a path summary (enhanced Dataguide).
type Summary = summary.Summary

// Pattern is an extended tree pattern: the view/query language.
type Pattern = pattern.Pattern

// View is a materialized view definition.
type View = core.View

// Plan is a logical algebraic plan over views.
type Plan = core.Plan

// RewriteResult reports the rewritings found and timing statistics.
type RewriteResult = core.RewriteResult

// RewriteOptions tunes the rewriting search.
type RewriteOptions = core.RewriteOptions

// Store holds materialized view extents for a document.
type Store = view.Store

// Result is an executed plan's relation.
type Result = algebra.Result

// Relation is a (possibly nested) table of values.
type Relation = nrel.Relation

// Tree is a canonical tree: a containment witness.
type Tree = core.Tree

// ParseXML reads an XML document into the tree model.
func ParseXML(r io.Reader) (*Document, error) { return xmltree.ParseXML(r) }

// ParseXMLString parses an XML document from a string.
func ParseXMLString(s string) (*Document, error) { return xmltree.ParseXMLString(s) }

// BuildSummary constructs the enhanced path summary of a document and
// annotates the document's nodes with their summary paths.
func BuildSummary(doc *Document) *Summary { return summary.Build(doc) }

// ParseSummary parses the parenthesized summary notation ("a(!b(c) =d)").
func ParseSummary(src string) (*Summary, error) { return summary.Parse(src) }

// ParsePattern parses the tree pattern surface syntax, e.g.
// `site(//item[id,v]{v>3}(/name[v] n?//listitem[c]))`.
func ParsePattern(src string) (*Pattern, error) { return pattern.Parse(src) }

// MustParsePattern is ParsePattern that panics on error.
func MustParsePattern(src string) *Pattern { return pattern.MustParse(src) }

// TranslateXQuery translates a nested-FLWR XQuery into a tree pattern.
func TranslateXQuery(query, rootLabel string) (*Pattern, error) {
	return xquery.Translate(query, rootLabel)
}

// NewView creates a view over a pattern; IDs are Dewey, so parent IDs are
// derivable (virtual IDs are available to the rewriter).
func NewView(name string, p *Pattern) *View {
	return &View{Name: name, Pattern: p, DerivableParentIDs: true}
}

// Contained decides p ⊆S q: on every document conforming to the summary,
// p's result is a subset of q's.
func Contained(p, q *Pattern, s *Summary) (bool, error) { return core.Contained(p, q, s) }

// ContainedInUnion decides p ⊆S q1 ∪ ... ∪ qm.
func ContainedInUnion(p *Pattern, qs []*Pattern, s *Summary) (bool, error) {
	return core.ContainedInUnion(p, qs, s)
}

// Equivalent decides p ≡S q.
func Equivalent(p, q *Pattern, s *Summary) (bool, error) { return core.Equivalent(p, q, s) }

// Satisfiable reports whether the pattern can match any document
// conforming to the summary.
func Satisfiable(p *Pattern, s *Summary) (bool, error) { return core.Satisfiable(p, s) }

// CanonicalModel computes mod_S(p), the canonical model of a pattern.
func CanonicalModel(p *Pattern, s *Summary) ([]*Tree, error) { return core.Model(p, s) }

// DefaultRewriteOptions returns the default rewriting configuration.
func DefaultRewriteOptions() RewriteOptions { return core.DefaultRewriteOptions() }

// Rewrite finds the view-based rewritings of q that are S-equivalent to it
// (Algorithm 1 of the paper).
func Rewrite(q *Pattern, views []*View, s *Summary) (*RewriteResult, error) {
	return core.Rewrite(q, views, s, core.DefaultRewriteOptions())
}

// RewriteWith is Rewrite with explicit options.
func RewriteWith(q *Pattern, views []*View, s *Summary, opts RewriteOptions) (*RewriteResult, error) {
	return core.Rewrite(q, views, s, opts)
}

// NewStore materializes the views over a document.
func NewStore(doc *Document, views []*View) *Store { return view.NewStore(doc, views) }

// Materialize evaluates one view over a document (nested form, Figure 1(c)).
func Materialize(v *View, doc *Document) *Relation { return view.Materialize(v, doc) }

// Execute runs a rewriting plan against materialized views: a *Store, or
// one epoch of it pinned with Store.Snapshot.
func Execute(p *Plan, st algebra.Reader) (*Result, error) { return algebra.Execute(p, st) }

// ExecOptions tunes plan execution: a cancellation context and an
// optional sink for vectorized-path counters.
type ExecOptions = algebra.Options

// ExecuteWith runs a rewriting plan with explicit execution options.
func ExecuteWith(p *Plan, st algebra.Reader, opts ExecOptions) (*Result, error) {
	return algebra.ExecuteWith(p, st, opts)
}

// CostStats bundles the statistics the cost model prices plans with: the
// summary's per-node cardinalities plus per-view extent sizes.
type CostStats = cost.Stats

// Cost is a plan's estimated execution cost and output cardinality.
type Cost = cost.Cost

// CostEstimator estimates plan costs against one statistics snapshot.
type CostEstimator = cost.Estimator

// CostFromSummary builds cost statistics from a summary alone; scan sizes
// are estimated from its cardinalities (uniform without statistics).
func CostFromSummary(s *Summary) *CostStats { return cost.FromSummary(s) }

// CostFromCatalog builds cost statistics from a store catalog and its
// parsed summary; cataloged scans are priced at actual row/byte counts.
func CostFromCatalog(cat *Catalog, s *Summary) *CostStats { return cost.FromCatalog(cat, s) }

// NewCostEstimator returns an estimator over the statistics.
func NewCostEstimator(st *CostStats) *CostEstimator { return cost.NewEstimator(st) }

// CostFunc estimates a plan's execution cost; lower is cheaper.
type CostFunc = core.CostFunc

// ChooseBest picks the cheapest rewriting under the cost function,
// deterministically (ties break on plan text, not discovery order). Use
// est.PlanCost as the cost function.
func ChooseBest(res *RewriteResult, costOf CostFunc) (*Plan, float64, int) {
	return core.ChooseBest(res, costOf)
}

// SubsumeCache memoizes summary-implication decisions; share one across
// containment/rewriting calls over the same summary.
type SubsumeCache = core.SubsumeCache

// NewSubsumeCache creates a bounded summary-implication cache
// (capacity <= 0 uses the default).
func NewSubsumeCache(capacity int) *SubsumeCache { return core.NewSubsumeCache(capacity) }

// EvalPattern evaluates a pattern (e.g. a query) directly on a document.
func EvalPattern(p *Pattern, doc *Document) *Relation { return p.Eval(doc) }

// Catalog is the manifest of a persistent view store directory: summary,
// summary hash, and one entry (pattern, schema, row count, byte size,
// segment file) per stored view.
type Catalog = store.Catalog

// BuildStore materializes the views over the document once and persists
// their extents as columnar segment files plus a catalog manifest in dir.
// Later runs serve them with OpenStore without touching the document.
func BuildStore(dir string, doc *Document, views []*View) (*Catalog, error) {
	return view.BuildStore(dir, doc, views)
}

// OpenStore loads view extents from a store directory built by BuildStore.
// The returned store carries no document and is safe for concurrent use.
func OpenStore(dir string, views []*View) (*Store, error) { return view.OpenStore(dir, views) }

// OpenCatalog reads a store directory's manifest (for the recorded summary
// and the stored view definitions) without loading any extent.
func OpenCatalog(dir string) (*Catalog, error) { return store.OpenCatalog(dir) }

// ServeConfig tunes a query Server.
type ServeConfig = serve.Config

// Server is the xvserve query daemon: it answers tree-pattern and XQuery
// queries over a persistent view store, with a shared containment cache
// and an LRU plan cache. Mount Handler on any HTTP server.
type Server = serve.Server

// NewServer opens a store directory and builds a ready-to-serve query
// daemon.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// NewServerHandler is a convenience returning just the daemon's routes
// (/query, /update, /healthz, /metrics, /debug/traces).
func NewServerHandler(cfg ServeConfig) (http.Handler, error) {
	s, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Handler(), nil
}

// Update is one typed document update (insert-subtree, delete-subtree,
// rename, settext) of the maintenance log.
type Update = xmltree.Update

// Update kinds.
const (
	UpdateInsert   = xmltree.UpdateInsert
	UpdateDelete   = xmltree.UpdateDelete
	UpdateRename   = xmltree.UpdateRename
	UpdateSetValue = xmltree.UpdateSetValue
)

// MaintainBatch reports one applied update batch: per-view tuple deltas,
// the views proven unaffected, and the rebuilt summary.
type MaintainBatch = maintain.Batch

// ParseUpdates decodes a JSON update batch (the /update wire format).
func ParseUpdates(data []byte) ([]Update, error) { return maintain.ParseUpdates(data) }

// StoreUpdateResult reports a persisted update batch (new epoch, per-view
// delta sizes, skipped-view count).
type StoreUpdateResult = view.UpdateResult

// UpdateStore applies an update batch to a store directory: the extents
// are maintained incrementally, the batch appended to the update log, and
// the catalog epoch advanced.
func UpdateStore(dir string, updates []Update) (*StoreUpdateResult, error) {
	return view.UpdateStore(dir, updates)
}

// CompactResult reports what a store checkpoint wrote and reclaimed.
type CompactResult = view.CheckpointResult

// CompactStore checkpoints a store directory: its update log is folded
// into fresh base segments and a fresh document checkpoint, and the
// superseded files are removed once the new catalog is durable. Query
// answers are unchanged.
func CompactStore(dir string) (*CompactResult, error) { return view.CompactStore(dir) }
