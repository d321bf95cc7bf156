package runtime

import (
	"xqgo/internal/expr"
	"xqgo/internal/xdm"
)

// Parallel comma branches — the paper's "Parallel execution" slide:
// independent sub-expressions of a sequence are evaluated concurrently
// ("only if there is no data dependency; only if the compiler guarantees
// that the given subexpressions are executed"). A drained comma sequence
// evaluates every operand, satisfying the guarantee; independence is
// established by forcing the branches' shared variable bindings first,
// after which each branch touches only immutable state (the store is
// read-only, documents and caches are mutex-guarded).
//
// The branches run as one morsel round (morsel.go), one branch per chunk,
// under the same activation rules as the other morsel loops: workers
// configured (Context.WithWorkers), a NextBatch pull before any item was
// read, and no still-parsing streamed input. A failed branch cancels its
// siblings through the round's group hook. The error-timing caveat of LET
// unfolding applies: forcing shared bindings may evaluate a variable an
// entirely lazy engine would have skipped, and a branch error surfaces at
// the first batch pull. XQuery's non-deterministic error semantics permit
// both.

// parallelMinWeight is the minimum expression-tree size of a branch worth a
// worker.
const parallelMinWeight = 12

// seqBranchForce reports whether a comma sequence may evaluate its branches
// as a morsel round, and returns the variable ids the branches read, which
// are forced before the round. Branches must be context-free and call no
// user functions (a function body may lazily force a shared global), and
// at least two must be heavy enough to pay for a worker.
func (c *compiler) seqBranchForce(n *expr.Seq) ([]int, bool) {
	if c.opts.NoBatch || len(n.Items) < 2 {
		return nil, false
	}
	heavy := 0
	for _, item := range n.Items {
		if expr.UsesContext(item) || c.hasUserCall(item) {
			return nil, false
		}
		if expr.Count(item) >= parallelMinWeight {
			heavy++
		}
	}
	if heavy < 2 {
		return nil, false
	}
	var shared []int
	seen := map[int]bool{}
	for _, item := range n.Items {
		for name := range expr.FreeVars(item) {
			if id, ok := c.resolve(xdm.ParseClark(name)); ok && !seen[id] {
				seen[id] = true
				shared = append(shared, id)
			}
		}
	}
	return shared, true
}

// branchIter is a comma sequence that evaluates its branches as one
// morsel round on its first pull, when that pull is a batch pull; until
// then, and whenever no round runs, it is the sequential concatIter.
type branchIter struct {
	Iter    // the concatIter, or a sliceIter over the round's output
	fr      *Frame
	fns     []seqFn
	force   []int
	dr      func(fr *Frame, it Iter) (xdm.Sequence, error)
	started bool
}

func (b *branchIter) Next() (xdm.Item, bool, error) {
	b.started = true
	return b.Iter.Next()
}

// NextBatch implements BatchIter.
func (b *branchIter) NextBatch(buf []xdm.Item) (int, error) {
	if !b.started {
		b.started = true
		if out, err := b.round(); err != nil {
			b.Iter = errIter(err)
		} else if out != nil {
			b.Iter = newSliceIter(out)
		}
	}
	return nextBatch(b.Iter, buf)
}

// round evaluates every branch on the worker pool and stitches the outputs
// in branch order. It returns nil without error when no round runs.
func (b *branchIter) round() (xdm.Sequence, error) {
	d := b.fr.dyn
	if d.streamingLazy() {
		return nil, nil
	}
	extra, release := d.leaseExtra(len(b.fns) - 1)
	if extra == 0 {
		return nil, nil
	}
	defer release()
	for _, id := range b.force {
		if _, err := b.fr.lookup(id).All(); err != nil {
			return nil, err
		}
	}
	parts, err := morselRound(d, extra, len(b.fns), func(w *Dynamic, i int) (xdm.Sequence, error) {
		wfr := b.fr.withDyn(w)
		return b.dr(wfr, b.fns[i](wfr))
	})
	if err != nil {
		return nil, err
	}
	out := xdm.Sequence{}
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}
