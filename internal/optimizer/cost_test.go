package optimizer

import "testing"

// The decision table the runtime's pathDecision relies on: each entry is a
// document/chain shape with a known winner. Costs are abstract, so the test
// pins choices (the contract), not absolute numbers.
func TestEstimateChainDecisions(t *testing.T) {
	cases := []struct {
		name string
		cs   ChainStats
		want Strategy
	}{
		{
			// Deep 60k-node document, three well-populated steps: navigation
			// touches every node per step — the holistic join wins.
			name: "deep chain picks twig",
			cs: ChainStats{
				DocNodes: 60000, AvgDepth: 12, Observed: -1,
				Steps: []ChainStep{{Postings: 15000}, {Postings: 15000}, {Postings: 15000}},
			},
			want: StrategyTwigJoin,
		},
		{
			// Tiny document: the fixed index-plan setup cost outweighs any
			// join advantage; stay on navigation.
			name: "tiny doc picks navigation",
			cs: ChainStats{
				DocNodes: 60, AvgDepth: 4, Observed: -1,
				Steps: []ChainStep{{Postings: 15}, {Postings: 15}},
			},
			want: StrategyNavigation,
		},
		{
			// Top-heavy chain: a huge first list joined against a small one.
			// The join reads every posting once, still far fewer than the
			// nodes navigation visits per step.
			name: "top-heavy chain picks twig",
			cs: ChainStats{
				DocNodes: 20000, AvgDepth: 4, Observed: -1,
				Steps: []ChainStep{{Postings: 10000}, {Postings: 100}},
			},
			want: StrategyTwigJoin,
		},
		{
			// //a[b]//d on a deep 60k-node document: the semi-join reads the
			// a and b lists once, navigation scans every node per step and
			// tests the predicate on each of the 15000 a's.
			name: "deep predicate chain picks twig",
			cs: ChainStats{
				DocNodes: 60000, AvgDepth: 12, Observed: -1,
				Steps: []ChainStep{
					{Postings: 15000, Preds: []ChainStep{{Postings: 15000, ChildEdge: true}}},
					{Postings: 15000},
				},
			},
			want: StrategyTwigJoin,
		},
		{
			// The same shape on a tiny document: setup and the predicate
			// postings outweigh a few dozen predicate tests.
			name: "tiny predicate chain picks navigation",
			cs: ChainStats{
				DocNodes: 60, AvgDepth: 4, Observed: -1,
				Steps: []ChainStep{
					{Postings: 15, Preds: []ChainStep{{Postings: 15, ChildEdge: true}}},
					{Postings: 15},
				},
			},
			want: StrategyNavigation,
		},
		{
			name: "empty chain guards to navigation",
			cs:   ChainStats{DocNodes: 1000, AvgDepth: 4, Observed: -1},
			want: StrategyNavigation,
		},
	}
	for _, c := range cases {
		est := EstimateChain(c.cs)
		if est.Choice != c.want {
			t.Errorf("%s: chose %v (nav %.0f, twig %.0f), want %v",
				c.name, est.Choice, est.Navigation, est.TwigJoin, c.want)
		}
	}
}

// Observed cardinality from a prior run replaces the static output estimate
// and can flip the choice: on a small document the static walk expects
// enough output to justify the index plan, but an observed-empty result
// makes navigation's higher per-item cost irrelevant.
func TestEstimateChainFeedbackFlip(t *testing.T) {
	cs := ChainStats{
		DocNodes: 100, AvgDepth: 3, Observed: -1,
		Steps: []ChainStep{{Postings: 20}, {Postings: 20}},
	}
	static := EstimateChain(cs)
	if static.Choice != StrategyTwigJoin {
		t.Fatalf("static choice = %v (nav %.0f, twig %.0f), want twig",
			static.Choice, static.Navigation, static.TwigJoin)
	}
	cs.Observed = 0
	fed := EstimateChain(cs)
	if fed.Choice != StrategyNavigation {
		t.Errorf("observed-empty choice = %v (nav %.0f, twig %.0f), want navigation",
			fed.Choice, fed.Navigation, fed.TwigJoin)
	}
	if fed.Output != 0 {
		t.Errorf("Output = %.1f, want the observed cardinality 0", fed.Output)
	}
}

// A cached index removes exactly the build term from the join and never
// changes navigation.
func TestEstimateChainIndexReady(t *testing.T) {
	cs := ChainStats{
		DocNodes: 5000, AvgDepth: 6, Observed: -1,
		Steps: []ChainStep{{Postings: 1000}, {Postings: 1000}},
	}
	cold := EstimateChain(cs)
	cs.IndexReady = true
	warm := EstimateChain(cs)
	if warm.Navigation != cold.Navigation {
		t.Errorf("navigation cost moved with index readiness: %.0f vs %.0f",
			warm.Navigation, cold.Navigation)
	}
	wantDelta := float64(cs.DocNodes) // costBuild per node
	if d := cold.TwigJoin - warm.TwigJoin; d != wantDelta {
		t.Errorf("twig build delta = %.0f, want %.0f", d, wantDelta)
	}
}

func TestStrategyString(t *testing.T) {
	want := map[Strategy]string{
		StrategyDefault:    "default",
		StrategyAuto:       "auto",
		StrategyNavigation: "navigation",
		StrategyTwigJoin:   "twig-join",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("Strategy(%d).String() = %q, want %q", s, got, w)
		}
	}
}

// Predicates add to both plans: the join pays per predicate posting,
// navigation per candidate tested. A chain without predicates costs what
// it did before predicates were priced.
func TestEstimateChainPredicatePricing(t *testing.T) {
	plain := ChainStats{
		DocNodes: 20000, AvgDepth: 6, Observed: -1,
		Steps: []ChainStep{{Postings: 4000}, {Postings: 4000}},
	}
	withPred := plain
	withPred.Steps = []ChainStep{
		{Postings: 4000, Preds: []ChainStep{{Postings: 3000, ChildEdge: true,
			Preds: []ChainStep{{Postings: 2000, ChildEdge: true}}}}},
		{Postings: 4000},
	}
	p, q := EstimateChain(plain), EstimateChain(withPred)
	if q.TwigJoin <= p.TwigJoin || q.Navigation <= p.Navigation {
		t.Errorf("predicate priced nothing: twig %.0f→%.0f, nav %.0f→%.0f",
			p.TwigJoin, q.TwigJoin, p.Navigation, q.Navigation)
	}
	if q.Output > p.Output {
		t.Errorf("a predicate raised the output estimate: %.0f > %.0f", q.Output, p.Output)
	}
	// The join reads the 3000+2000 predicate postings and the anchor list
	// once more; the output estimate shrinks, which lowers the feed cost.
	wantJoinDelta := costTwigPost*(3000+2000+4000) - costJoinOut*(p.Output-q.Output)
	if d := q.TwigJoin - p.TwigJoin; d != wantJoinDelta {
		t.Errorf("join predicate delta = %.1f, want %.1f", d, wantJoinDelta)
	}
}
