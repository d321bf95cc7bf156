package optimizer

// Cost-based strategy selection for rooted path chains (//a//b/c …): the
// planner chooses per branch between navigation and the holistic twig
// (TwigStack) join. Inputs are
// store-level statistics collected at parse time (document size, mean
// element depth, per-name posting-list lengths — tag selectivity), whether
// a structural index is already cached for the document, and the output
// cardinality observed on a prior run of the same operator (the profile
// feedback loop). Following the Demythization report, the binary
// stack-tree join was measured against the holistic join on deep-chain,
// wide-shallow and low-selectivity-leaf shapes and lost every one, so it
// is no longer a plan: it survives only as a comparator in structjoin.

// Strategy selects how a join-eligible path chain is executed.
type Strategy int

const (
	// StrategyDefault is the zero value: "not specified". It resolves to
	// StrategyAuto.
	StrategyDefault Strategy = iota
	// StrategyAuto picks per branch and per document with this cost model.
	StrategyAuto
	// StrategyNavigation forces tree navigation (the index-free baseline).
	StrategyNavigation
	// StrategyTwigJoin forces the holistic twig (TwigStack) join.
	StrategyTwigJoin
)

// String renders the strategy the way xqd surfaces and metrics label it.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyNavigation:
		return "navigation"
	case StrategyTwigJoin:
		return "twig-join"
	default:
		return "default"
	}
}

// ChainStep is one step of a rooted path chain, as the cost model sees it.
// A predicate pattern is a tree of steps: each entry of Preds is the first
// step of one existential predicate, its ChildEdge the edge to this step,
// and its own Preds hold the predicate's nested predicates and its
// continuation.
type ChainStep struct {
	Postings  int64 // posting-list length of the step's name test
	ChildEdge bool  // parent/child edge from the previous step
	Preds     []ChainStep
}

// ChainStats carries everything the model knows about one chain over one
// document.
type ChainStats struct {
	DocNodes   int64       // total nodes in the document
	AvgDepth   float64     // mean element depth (region-label level)
	IndexReady bool        // a structural index is already cached
	Observed   int64       // output cardinality observed on a prior run; -1 unknown
	Steps      []ChainStep // outermost-first
}

// CostEstimate is the model's verdict: abstract per-strategy costs (posting
// visits, roughly), the output-cardinality estimate used, and the winner.
type CostEstimate struct {
	Navigation float64 `json:"navigation"`
	TwigJoin   float64 `json:"twigJoin"`
	Output     float64 `json:"output"`
	Choice     Strategy
}

// Model weights, in abstract "posting visit" units. They encode relative
// constants, not absolute times: navigation touches every node per step
// through the full axis-iterator machinery and pays a sort+dedup tail on
// its materialized output; an index build is one cheap append-only scan.
const (
	costNavNode  = 2.0  // navigation work per document node per chain step
	costNavOut   = 2.5  // per output item: materialize + sort + dedup tail
	costBuild    = 1.0  // index build, per document node (skipped when cached)
	costTwigPost = 1.25 // holistic join, per posting (stack discipline)
	costJoinOut  = 1.0  // join feed, per output item (already in doc order)
	costSetup    = 256  // fixed index-plan overhead: keeps tiny docs on navigation
	// costNavPred is navigation's work per candidate per predicate step:
	// one axis scan over about a fanout of nodes through the iterator
	// machinery. The join pays costTwigPost per posting its semi-joins
	// read instead.
	costNavPred = 8.0

	// selFloor keeps the containment expectation from collapsing to zero on
	// sparse names; selCap bounds it by the tree depth (a descendant has at
	// most AvgDepth-ish stacked ancestors).
	selFloor = 0.25
)

// EstimateChain runs the model over one chain and returns per-strategy
// costs plus the winning strategy. Ties go to navigation.
func EstimateChain(cs ChainStats) CostEstimate {
	if len(cs.Steps) == 0 {
		return CostEstimate{Choice: StrategyNavigation}
	}
	n := float64(cs.DocNodes)
	if n < 1 {
		n = 1
	}
	depth := cs.AvgDepth
	if depth < 1 {
		depth = 1
	}

	// Walk the chain estimating intermediate cardinalities: out_i candidates
	// of step i survive containment under the out_{i-1} survivors of the
	// previous step. The expected number of stacked ancestors over a random
	// node is ~ depth * |A| / N, floored so sparse names keep a pulse and
	// capped by the depth itself.
	//
	// A step with predicates has its candidates filtered: navigation tests
	// every predicate step on every candidate, the join semi-joins the
	// step's list with each predicate's reduced list, reading every
	// predicate posting plus the step's own list once per predicate.
	out := float64(cs.Steps[0].Postings)
	sumPostings := out
	navPred := 0.0
	for i, s := range cs.Steps {
		if i > 0 {
			l := float64(s.Postings)
			sumPostings += l
			f := depth * out / n
			if f < selFloor {
				f = selFloor
			}
			if f > depth {
				f = depth
			}
			out = min(l*f, l)
		}
		for _, p := range s.Preds {
			postings, steps := predSize(p)
			sumPostings += postings + float64(s.Postings)
			navPred += costNavPred * steps * out
			out *= predSelectivity(p, float64(s.Postings), depth)
		}
	}
	if cs.Observed >= 0 {
		// Feedback from a prior run replaces the static output estimate —
		// profile estItems vs observed items as a free replanning signal.
		out = float64(cs.Observed)
	}

	build := 0.0
	if !cs.IndexReady {
		build = costBuild * n
	}
	steps := float64(len(cs.Steps))
	est := CostEstimate{
		Navigation: costNavNode*n*steps + navPred + costNavOut*out,
		TwigJoin:   build + costSetup + costTwigPost*sumPostings + costJoinOut*out,
		Output:     out,
	}
	est.Choice = StrategyNavigation
	if est.TwigJoin < est.Navigation {
		est.Choice = StrategyTwigJoin
	}
	return est
}

// predSize returns the posting-list lengths and the step count of one
// predicate pattern, nested predicates included.
func predSize(p ChainStep) (postings, steps float64) {
	postings, steps = float64(p.Postings), 1
	for _, c := range p.Preds {
		cp, cs := predSize(c)
		postings += cp
		steps += cs
	}
	return postings, steps
}

// predSelectivity bounds the share of an anchor list of the given length
// that a predicate keeps: every match of the predicate's first step has
// one parent, and at most ~depth ancestors, so a child-edge predicate
// keeps at most its first step's postings and a descendant-edge one depth
// times that. Nested predicates and continuations are not priced further.
func predSelectivity(p ChainStep, anchor, depth float64) float64 {
	if anchor < 1 {
		return 1
	}
	reach := float64(p.Postings)
	if !p.ChildEdge {
		reach *= depth
	}
	return min(1, reach/anchor)
}
