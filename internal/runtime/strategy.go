package runtime

import (
	"sync/atomic"

	"xqgo/internal/optimizer"
	"xqgo/internal/store"
	"xqgo/internal/structjoin"
)

// Cost-based join-strategy selection. A join-eligible path operator keeps
// both its navigation and its index-join compilations and decides at run
// time — per operator and per document, since the statistics that drive the
// decision (document size, tag selectivity, whether an index is cached) are
// only known then. Decisions are cached on the execution's base Dynamic so
// an operator instantiated once per FLWOR tuple prices its plan once, and
// each resolved choice is recorded on the profile exactly once per
// (operator, document).

// feedback is the per-plan cardinality-feedback cache: the output
// cardinality each join-eligible path operator produced on a prior
// execution, keyed by the operator's stable profile id. A Prepared shares
// one feedback across all its executions (atomically — concurrent
// executions may race to publish, any observed value is a real
// observation), closing the loop between profile estItems and observed
// items: the next Auto decision prices plans against reality instead of
// the static estimate.
type feedback struct {
	obs []atomic.Int64 // observed cardinality + 1; 0 = never observed
}

func (f *feedback) init(n int) { f.obs = make([]atomic.Int64, n) }

// observed returns the last recorded output cardinality for operator id,
// or -1 when none was recorded (unknown id, profiling off, never ran).
func (f *feedback) observed(id int) int64 {
	if f == nil || id < 0 || id >= len(f.obs) {
		return -1
	}
	if v := f.obs[id].Load(); v > 0 {
		return v - 1
	}
	return -1
}

// record stores an observed output cardinality for operator id.
func (f *feedback) record(id int, n int64) {
	if f != nil && id >= 0 && id < len(f.obs) && n >= 0 {
		f.obs[id].Store(n + 1)
	}
}

// planKey identifies one strategy decision: a join-eligible path operator
// (by its compiled joinPlan identity, which survives NoProfileHooks) over
// one document.
type planKey struct {
	jp  *joinPlan
	doc *store.Document
}

// resolvePathStrategy resolves the strategy policy for one instantiation:
// a per-execution plan hint wins, then the compiled-in option. The result
// may still be StrategyAuto, which pathDecision prices per document.
func resolvePathStrategy(dyn *Dynamic, compiled optimizer.Strategy) optimizer.Strategy {
	if dyn != nil && dyn.PlanHint != optimizer.StrategyDefault {
		return dyn.PlanHint
	}
	if compiled != optimizer.StrategyDefault {
		return compiled
	}
	return optimizer.StrategyAuto
}

// pathDecision returns the concrete execution strategy for one join-eligible
// path operator over one document, resolving StrategyAuto through the cost
// model. The decision is cached per execution; the first resolution is
// recorded on the profile (operator row + per-strategy totals).
func (d *Dynamic) pathDecision(jp *joinPlan, doc *store.Document, policy optimizer.Strategy, opID int, fb *feedback) optimizer.Strategy {
	b := d.base()
	key := planKey{jp: jp, doc: doc}
	b.planMu.Lock()
	if s, ok := b.plans[key]; ok {
		b.planMu.Unlock()
		return s
	}
	b.planMu.Unlock()

	// Price outside the lock: Stats() may drive a lazy parse to completion.
	s := policy
	if s == optimizer.StrategyAuto {
		s = chooseChainStrategy(jp, doc, b.indexes.ready(doc), fb.observed(opID))
	}

	b.planMu.Lock()
	if prev, ok := b.plans[key]; ok {
		b.planMu.Unlock()
		return prev
	}
	if b.plans == nil {
		b.plans = make(map[planKey]optimizer.Strategy)
	}
	b.plans[key] = s
	b.planMu.Unlock()
	d.Prof.notePlanChoice(opID, s)
	return s
}

// chooseChainStrategy runs the optimizer cost model over one chain and one
// document. Lazy (still-parsing) documents navigate: their statistics are
// unknown and an index build would force the whole parse.
func chooseChainStrategy(jp *joinPlan, doc *store.Document, indexReady bool, observed int64) optimizer.Strategy {
	if doc.Lazy() {
		return optimizer.StrategyNavigation
	}
	st := doc.Stats()
	cs := optimizer.ChainStats{
		DocNodes:   st.Nodes,
		AvgDepth:   st.AvgDepth,
		IndexReady: indexReady,
		Observed:   observed,
		Steps:      make([]optimizer.ChainStep, len(jp.chain)),
	}
	for i, s := range jp.chain {
		cs.Steps[i] = optimizer.ChainStep{
			Postings:  st.ElementCount(s.name),
			ChildEdge: s.childOnly,
			Preds:     predStats(s.preds, st),
		}
	}
	return optimizer.EstimateChain(cs).Choice
}

// predStats prices predicate patterns from the document's per-name counts.
func predStats(preds []*structjoin.TwigNode, st *store.DocStats) []optimizer.ChainStep {
	if len(preds) == 0 {
		return nil
	}
	out := make([]optimizer.ChainStep, len(preds))
	for i, p := range preds {
		out[i] = optimizer.ChainStep{
			Postings:  st.ElementCount(p.Name),
			ChildEdge: p.ChildEdge,
			Preds:     predStats(p.Children, st),
		}
	}
	return out
}
