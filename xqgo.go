// Package xqgo is a streaming XQuery processor: a Go reproduction of the
// XQRL/BEA architecture described in "XML Query Processing" (ICDE 2004) —
// expression-tree compilation, a rewriting-rule optimizer, and a lazy
// pull-based iterator runtime over an array document store, plus the
// structural-join/labeling machinery of the same era (see DESIGN.md).
//
// Quick start:
//
//	doc, _ := xqgo.ParseString(`<bib><book year="1994"><title>TCP/IP</title></book></bib>`, "bib.xml")
//	q, _ := xqgo.Compile(`for $b in /bib/book where $b/@year = 1994 return $b/title`, nil)
//	out, _ := q.EvalString(xqgo.NewContext().WithContextNode(doc))
package xqgo

import (
	"context"
	"fmt"
	"io"
	"iter"
	"math"
	"sync"
	"time"

	"xqgo/internal/expr"
	"xqgo/internal/limits"
	"xqgo/internal/optimizer"
	"xqgo/internal/runtime"
	"xqgo/internal/serializer"
	"xqgo/internal/store"
	"xqgo/internal/streamexec"
	"xqgo/internal/structjoin"
	"xqgo/internal/xdm"
	"xqgo/internal/xmlparse"
	"xqgo/internal/xqparse"
)

// Re-exported data-model types: results are sequences of items, each a node
// or an atomic value.
type (
	// Item is one member of a result sequence.
	Item = xdm.Item
	// Sequence is a materialized result sequence.
	Sequence = xdm.Sequence
	// Node is the data-model node interface.
	Node = xdm.Node
	// Atomic is an atomic value with its dynamic type.
	Atomic = xdm.Atomic
)

// EngineKind selects the evaluation engine.
//
// Deprecated: raw engine toggling is a mechanism knob. Callers tuning how
// queries execute should express intent through Options.Strategy (or a
// per-execution Context.WithPlanHints) and leave the engine alone; Eager
// remains available as the differential-testing comparator.
type EngineKind int

const (
	// Streaming is the lazy pull-based iterator engine (the paper's
	// processor). Default.
	Streaming EngineKind = iota
	// Eager is the fully-materializing baseline engine used as the
	// comparator in the experiments.
	Eager
)

// Strategy is the join-strategy policy for join-eligible path chains
// (//a//b/c …): how the engine evaluates rooted descendant-axis chains over
// plain name tests, by navigation or by the holistic twig join. The zero
// value means StrategyAuto.
type Strategy = optimizer.Strategy

const (
	// StrategyAuto (the default) picks per branch and per document with the
	// cost model: store statistics (document size, tag selectivity, depth),
	// whether a structural index is already cached, and output cardinalities
	// observed on prior runs of the same plan.
	StrategyAuto = optimizer.StrategyAuto
	// ForceNavigation pins tree navigation (the index-free baseline).
	ForceNavigation = optimizer.StrategyNavigation
	// ForceTwig pins the holistic twig (TwigStack) join.
	ForceTwig = optimizer.StrategyTwigJoin
)

// Options configure compilation.
type Options struct {
	// Engine selects streaming (default) or the eager baseline.
	//
	// Deprecated: see EngineKind. Use Strategy to steer execution.
	Engine EngineKind
	// NoOptimize disables the rewriting optimizer entirely.
	NoOptimize bool
	// DisableRules turns off individual optimizer rules by name (see
	// the optimizer rule constants re-exported below).
	DisableRules []string
	// Strategy selects how join-eligible path chains execute: StrategyAuto
	// (cost-based, the default) or one of the Force* escape hatches for
	// testing and measurement. A per-execution Context.WithPlanHints
	// overrides it.
	Strategy Strategy
	// MemoizeFunctions caches calls to pure user functions within one
	// execution (intra-query memoization).
	MemoizeFunctions bool
	// DisableBatching turns off the vectorized batch pull fast path: every
	// materializing consumer in the plan moves one item per virtual call.
	// This is the item-at-a-time baseline used by the batched-vs-item
	// benchmark rows and differential tests; leave it off for production.
	DisableBatching bool
	// DisableProjection turns off static path projection for streaming
	// inputs (Context.WithStreamingInput): the whole input document is
	// materialized instead of only the subtrees the query's path set can
	// reach. Projection never affects results — this switch exists for
	// differential testing and measurement.
	DisableProjection bool
}

// Optimizer rule names for Options.DisableRules (experiment E10 ablations).
const (
	RuleConstFold   = optimizer.RuleConstFold
	RuleLetFold     = optimizer.RuleLetFold
	RuleFnInline    = optimizer.RuleFnInline
	RuleFlworUnnest = optimizer.RuleFlworUnnest
	RuleForMin      = optimizer.RuleForMin
	RuleCSE         = optimizer.RuleCSE
	RulePathOrder   = optimizer.RulePathOrder
	RuleTypeRewrite = optimizer.RuleTypeRewrite
	RuleParentElim  = optimizer.RuleParentElim
	RuleNoNodeIDs   = optimizer.RuleNoNodeIDs
)

// Query is a compiled, optimized, executable query.
//
// A Query is immutable after Compile and safe for concurrent use: any
// number of goroutines may call Eval, EvalString, Execute or Iterator on
// the same Query simultaneously (the service layer's plan cache relies on
// this). Per-execution state — function memoization, structural-join
// indexes, the stable current dateTime — lives on the Context, which is
// internally synchronized; a Context may also be shared across concurrent
// evaluations as long as it is not mutated (Bind, RegisterDocument, …)
// while a query runs on it.
type Query struct {
	prepared *runtime.Prepared
	plan     *expr.Query
	trace    *optimizer.Trace // rewrite trace; nil when NoOptimize
	ro       runtime.Options  // engine options, reused by the stream compiler

	// Lazily compiled streaming form (see Streamability / WithStreamMode).
	streamOnce sync.Once
	sprog      *streamexec.Program
}

// Compile parses, optimizes and compiles an XQuery source text.
func Compile(src string, opts *Options) (*Query, error) {
	if opts == nil {
		opts = &Options{}
	}
	q, err := xqparse.Parse(src)
	if err != nil {
		return nil, err
	}
	var trace *optimizer.Trace
	if !opts.NoOptimize {
		oo := optimizer.Options{}
		if len(opts.DisableRules) > 0 {
			oo = optimizer.Disable(opts.DisableRules...)
		}
		trace = optimizer.NewTrace()
		oo.Trace = trace
		q = optimizer.Optimize(q, oo)
	}
	strategy := opts.Strategy
	if strategy == optimizer.StrategyDefault {
		strategy = StrategyAuto
	}
	ro := runtime.Options{
		Eager:            opts.Engine == Eager,
		Strategy:         strategy,
		MemoizeFunctions: opts.MemoizeFunctions,
		NoBatch:          opts.DisableBatching,
	}
	if !opts.DisableProjection {
		// Static path projection: the set of root-reachable paths the query
		// can touch, used to skip unreachable subtrees while stream-parsing.
		ro.Projection = optimizer.ExtractPaths(q)
	}
	prepared, err := runtime.Compile(q, ro)
	if err != nil {
		return nil, err
	}
	return &Query{prepared: prepared, plan: q, trace: trace, ro: ro}, nil
}

// MustCompile is Compile that panics on error (for tests and examples).
func MustCompile(src string, opts *Options) *Query {
	q, err := Compile(src, opts)
	if err != nil {
		panic(err)
	}
	return q
}

// Profiling and explain support. A Profile is attached to a Context before
// execution and read afterwards; the rewrite trace is recorded at Compile
// time. See Query.NewProfile, Context.WithProfile and Query.RewriteTrace.
type (
	// Profile collects per-operator and engine-wide execution statistics
	// for executions it is attached to (see Context.WithProfile).
	Profile = runtime.Profile
	// ProfileReport is a snapshot of a Profile.
	ProfileReport = runtime.Report
	// OpProfile is one per-operator row of a ProfileReport.
	OpProfile = runtime.OpReport
	// EngineCounters are the execution-wide counters of a ProfileReport.
	EngineCounters = runtime.CounterReport
	// RewriteEvent is one recorded optimizer rule application.
	RewriteEvent = optimizer.TraceEvent
)

// NewProfile creates a wall-clock-timed profile for this query (explain
// mode: every instrumented operator pull is timed).
func (q *Query) NewProfile() *Profile { return q.prepared.NewProfile(true) }

// NewCountersProfile creates a counters-only profile: item counts and engine
// counters are collected but no per-pull timing, making it cheap enough for
// always-on accounting (the service layer's default).
func (q *Query) NewCountersProfile() *Profile { return q.prepared.NewProfile(false) }

// RewriteTrace returns the optimizer rule applications recorded while this
// query was compiled, in application order (nil when NoOptimize was set).
func (q *Query) RewriteTrace() []RewriteEvent { return q.trace.Events() }

// RuleFires returns per-rule fire counts from compilation (nil when nothing
// fired or NoOptimize was set).
func (q *Query) RuleFires() map[string]int { return q.trace.Fires() }

// Document is a parsed XML document.
type Document struct {
	doc *store.Document
}

// Root returns the document node.
func (d *Document) Root() Node { return d.doc.RootNode() }

// NumNodes returns the number of stored nodes.
func (d *Document) NumNodes() int { return d.doc.NumNodes() }

// Store exposes the underlying array store (advanced use: structural joins,
// token scans).
func (d *Document) Store() *store.Document { return d.doc }

// FromStore wraps an internal store document (used by the workload
// generators, tools and benchmarks).
func FromStore(d *store.Document) *Document { return &Document{doc: d} }

// ParseOptions configure document parsing.
type ParseOptions struct {
	// StripWhitespace drops whitespace-only text nodes.
	StripWhitespace bool
	// PoolText deduplicates repeated text values (dictionary pooling).
	PoolText bool
}

// Parse reads an XML document.
func Parse(r io.Reader, uri string) (*Document, error) {
	return ParseWith(r, uri, ParseOptions{})
}

// ParseWith reads an XML document with options.
func ParseWith(r io.Reader, uri string, po ParseOptions) (*Document, error) {
	doc, err := xmlparse.Parse(r, xmlparse.Options{
		URI:             uri,
		StripWhitespace: po.StripWhitespace,
		PoolText:        po.PoolText,
	})
	if err != nil {
		return nil, err
	}
	return &Document{doc: doc}, nil
}

// ParseString parses a document held in a string.
func ParseString(src, uri string) (*Document, error) {
	doc, err := xmlparse.ParseString(src, xmlparse.Options{URI: uri})
	if err != nil {
		return nil, err
	}
	return &Document{doc: doc}, nil
}

// MustParseString is ParseString that panics on error.
func MustParseString(src, uri string) *Document {
	d, err := ParseString(src, uri)
	if err != nil {
		panic(err)
	}
	return d
}

// Context is the dynamic evaluation context: external variables, available
// documents, the initial context item.
type Context struct {
	dyn  *runtime.Dynamic
	reg  *runtime.DocRegistry
	hook func() error // user hook from WithInterrupt, kept for ctx composition

	// Stream-mode state (see WithStreamMode): the raw reader behind
	// WithStreamingInput, kept here so the event-driven evaluator can own
	// the parse when the plan is streamable.
	streamMode bool
	streamR    io.Reader
	streamURI  string
}

// NewContext creates an empty context with an in-memory document registry
// (no filesystem access; use RegisterFile/AllowFilesystem for files).
func NewContext() *Context {
	reg := runtime.NewDocRegistry(false)
	return &Context{
		dyn: &runtime.Dynamic{Resolver: reg, Vars: map[string]xdm.Sequence{}},
		reg: reg,
	}
}

// AllowFilesystem lets fn:doc() read unregistered URIs from disk.
// Documents already added via RegisterDocument remain registered.
func (c *Context) AllowFilesystem() *Context {
	c.reg.AllowFilesystem(true)
	return c
}

// RegisterDocument makes a document available to fn:doc(uri)/document(uri).
func (c *Context) RegisterDocument(uri string, d *Document) *Context {
	c.reg.Register(uri, d.Root())
	return c
}

// RegisterCollection makes a sequence available to fn:collection(uri).
func (c *Context) RegisterCollection(uri string, seq Sequence) *Context {
	if c.dyn.Collections == nil {
		c.dyn.Collections = map[string]xdm.Sequence{}
	}
	c.dyn.Collections[uri] = seq
	return c
}

// WithContextNode sets the initial context item to the document root.
func (c *Context) WithContextNode(d *Document) *Context {
	c.dyn.ContextItem = d.Root()
	return c
}

// WithContextItem sets the initial context item.
func (c *Context) WithContextItem(it Item) *Context {
	c.dyn.ContextItem = it
	return c
}

// WithNow pins fn:current-dateTime() (for reproducible tests).
func (c *Context) WithNow(t time.Time) *Context {
	c.dyn.Now = t
	return c
}

// WithInterrupt installs a low-level cancellation hook polled periodically
// during evaluation (a step budget over the engine's iterator loops). When
// the hook returns a non-nil error, the execution aborts with it.
//
// Most callers should use the context-first entry points instead —
// EvalContext, ExecuteContext, IteratorContext — which wire a
// context.Context's cancellation into the same mechanism. WithInterrupt
// remains for cancellation sources that are not contexts (quotas, external
// kill switches); a hook installed here keeps running alongside a
// context-first execution's deadline.
func (c *Context) WithInterrupt(f func() error) *Context {
	c.hook = f
	c.dyn.Interrupt = f
	return c
}

// WithStreamingInput attaches a streaming XML input: the document is parsed
// incrementally while the query runs, pulled forward only as far as
// evaluation demands, with subtrees unreachable by the query's static path
// set skipped entirely (see Options.DisableProjection). The document
// becomes the initial context item when none is set, and resolves via
// fn:doc(uri) under the given URI.
//
// The reader is consumed by at most one execution; attach a fresh Context
// (and reader) per run. Parse errors in regions the query never visits may
// go unreported — the stream is only read, and only validated, on demand.
func (c *Context) WithStreamingInput(r io.Reader, uri string) *Context {
	c.dyn.Stream = runtime.NewStreamState(r, xmlparse.Options{URI: uri})
	c.streamR = r
	c.streamURI = uri
	return c
}

// bindContext routes ctx cancellation into the engine's interrupt hook,
// composing with any WithInterrupt hook. A pending streamed-input read is
// also unblocked on cancellation — without that, an execution stalled on a
// slow producer would ignore its deadline until the next byte arrived. No-op
// for contexts that can never be canceled (context.Background() and
// friends).
func (c *Context) bindContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		return
	}
	hook := c.hook
	c.dyn.Interrupt = func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if hook != nil {
			return hook()
		}
		return nil
	}
	c.dyn.Stream.BindContext(ctx)
}

// MemoryBudget tracks one execution's bytes against a per-query cap; see
// Context.WithMemoryBudget. Obtain standalone instances with
// NewMemoryBudget, or governed ones from a MemoryGovernor.
type MemoryBudget = limits.Budget

// MemoryGovernor is a process-wide ledger of tracked bytes across many
// budgeted executions, with a soft cap for admission control. The service
// layer holds one per daemon.
type MemoryGovernor = limits.Governor

// BudgetExceededError is the structured error a memory-budget overage
// surfaces as (code XQGO0001). Detect it with errors.As.
type BudgetExceededError = limits.BudgetError

// NewMemoryBudget creates a standalone per-execution memory budget of
// maxBytes (0 = track without enforcing).
func NewMemoryBudget(maxBytes int64) *MemoryBudget {
	return limits.NewBudget(maxBytes, nil)
}

// NewMemoryGovernor creates a governor with a process soft cap in bytes
// (0 = unlimited). Budgets created with Governed charge against it.
func NewMemoryGovernor(softLimitBytes int64) *MemoryGovernor {
	return limits.NewGovernor(softLimitBytes)
}

// WithMemoryBudget caps the tracked bytes executions under this context may
// hold: store growth during lazy materialization, batch buffer pools, FLWOR
// gather rounds, and streaming window buffers all charge the budget, and
// overage aborts the query with a structured XQGO0001 error instead of
// letting it OOM the process. maxBytes <= 0 removes the cap. The accounting
// is an estimate of retained engine allocations, not process RSS.
func (c *Context) WithMemoryBudget(maxBytes int64) *Context {
	if maxBytes <= 0 {
		c.dyn.Budget = nil
		return c
	}
	c.dyn.Budget = limits.NewBudget(maxBytes, nil)
	return c
}

// WithBudget attaches an externally created budget (possibly charging a
// shared MemoryGovernor) to this context. Pass nil to detach. A budget
// belongs to one execution: release it (ReleaseAll) when the run finishes.
func (c *Context) WithBudget(b *MemoryBudget) *Context {
	c.dyn.Budget = b
	return c
}

// Budget returns the attached memory budget, nil when none is set.
func (c *Context) Budget() *MemoryBudget { return c.dyn.Budget }

// WithProfile attaches a profile to this context: subsequent executions
// update its counters. The profile must come from the same Query's
// NewProfile/NewCountersProfile (operator ids are plan-specific). Pass nil
// to detach.
func (c *Context) WithProfile(p *Profile) *Context {
	c.dyn.Prof = p
	return c
}

// WorkerLimiter arbitrates extra intra-query (morsel) workers against a
// shared slot pool; see Context.WithWorkers. TryLease grants between 0 and
// n extra workers without blocking, Release returns them. Implementations
// must be safe for concurrent use.
type WorkerLimiter = runtime.WorkerLimiter

// WithWorkers sets the morsel-parallelism target for executions under this
// context, the engine's one parallelism knob: up to n workers — including
// the pulling goroutine — cooperate on large path-step scans, structural
// joins, FLWOR for/where tuple pipelines and the heavy branches of comma
// sequences, with results stitched back in document order. n <= 1 (the
// default) keeps execution fully sequential. Workers beyond the first are
// leased round by round from the limiter (WithWorkerLimiter; a process-wide
// GOMAXPROCS pool by default) and are best-effort: a query always makes
// progress on its own goroutine — the guaranteed minimum of one — and
// simply runs sequentially when no slots are idle. Results and their order
// are identical to sequential execution; errors may surface from bindings
// a fully lazy evaluation would have skipped (XQuery's non-deterministic
// error semantics permit this).
func (c *Context) WithWorkers(n int) *Context {
	c.dyn.Workers = n
	return c
}

// WithWorkerLimiter installs the slot source extra morsel workers are
// leased from; nil restores the default process-wide pool. The service
// layer passes its admission executor here, so a heavy query soaks up idle
// request slots without ever starving the service queue.
func (c *Context) WithWorkerLimiter(l WorkerLimiter) *Context {
	c.dyn.Limiter = l
	return c
}

// PlanHints are per-execution overrides of compiled plan policy; see
// Context.WithPlanHints.
type PlanHints struct {
	// Strategy, when not zero, overrides the plan's Options.Strategy for
	// executions under this context: StrategyAuto re-enables cost-based
	// selection, the Force* values pin one execution strategy.
	Strategy Strategy
}

// WithPlanHints overrides plan policy for executions under this context —
// the request-scoped escape hatch over the compile-time Options.Strategy.
// The zero PlanHints removes any previous hint.
func (c *Context) WithPlanHints(h PlanHints) *Context {
	c.dyn.PlanHint = h.Strategy
	return c
}

// SeedIndex pre-populates the structural-join index cache for d with an
// already built index (see structjoin.BuildIndex), so executions that
// choose an index-based join strategy share one index instead of each
// building their own — and the cost model sees the index as free. The
// index must have been built from d's store document.
func (c *Context) SeedIndex(d *Document, idx *structjoin.Index) *Context {
	c.dyn.SeedIndex(d.doc, idx)
	return c
}

// Bind binds an external variable (declared "external" in the prolog). The
// value is converted from a Go value: string, bool, numeric types,
// time.Time, Node, Item, Sequence, or a slice of those (see ToSequence).
// Bind panics on unconvertible values, preserving the fluent chaining
// style; BindValue is the error-returning form.
func (c *Context) Bind(name string, value any) *Context {
	if err := c.BindValue(name, value); err != nil {
		panic(fmt.Sprintf("xqgo: Bind(%s): %v", name, err))
	}
	return c
}

// BindValue binds an external variable, returning an error instead of
// panicking when the Go value cannot be converted to an XDM sequence.
func (c *Context) BindValue(name string, value any) error {
	seq, err := ToSequence(value)
	if err != nil {
		return err
	}
	c.dyn.Vars[xdm.ParseClark(name).Clark()] = seq
	return nil
}

// ToSequence converts a Go value to an XDM sequence.
func ToSequence(value any) (Sequence, error) {
	switch v := value.(type) {
	case nil:
		return nil, nil
	case Sequence:
		return v, nil
	case Item:
		return Sequence{v}, nil
	case *Document:
		return Sequence{v.Root()}, nil
	case string:
		return Sequence{xdm.NewString(v)}, nil
	case bool:
		return Sequence{xdm.NewBoolean(v)}, nil
	case int:
		return Sequence{xdm.NewInteger(int64(v))}, nil
	case int32:
		return Sequence{xdm.NewInteger(int64(v))}, nil
	case int64:
		return Sequence{xdm.NewInteger(v)}, nil
	case uint:
		if uint64(v) > math.MaxInt64 {
			return nil, fmt.Errorf("uint value %d overflows xs:integer", v)
		}
		return Sequence{xdm.NewInteger(int64(v))}, nil
	case uint64:
		if v > math.MaxInt64 {
			return nil, fmt.Errorf("uint64 value %d overflows xs:integer", v)
		}
		return Sequence{xdm.NewInteger(int64(v))}, nil
	case float32:
		return Sequence{xdm.NewDouble(float64(v))}, nil
	case float64:
		return Sequence{xdm.NewDouble(v)}, nil
	case time.Time:
		return Sequence{xdm.NewDateTime(v, "")}, nil
	case []string:
		out := make(Sequence, len(v))
		for i, s := range v {
			out[i] = xdm.NewString(s)
		}
		return out, nil
	case []int:
		out := make(Sequence, len(v))
		for i, x := range v {
			out[i] = xdm.NewInteger(int64(x))
		}
		return out, nil
	case []int64:
		out := make(Sequence, len(v))
		for i, x := range v {
			out[i] = xdm.NewInteger(x)
		}
		return out, nil
	case []float64:
		out := make(Sequence, len(v))
		for i, x := range v {
			out[i] = xdm.NewDouble(x)
		}
		return out, nil
	case []bool:
		out := make(Sequence, len(v))
		for i, x := range v {
			out[i] = xdm.NewBoolean(x)
		}
		return out, nil
	case []Node:
		out := make(Sequence, len(v))
		for i, n := range v {
			out[i] = n
		}
		return out, nil
	case []Item:
		// Sequence is a defined type over []Item; a plain []Item (e.g. built
		// by generic code) lands here.
		return Sequence(v), nil
	case []any:
		var out Sequence
		for _, x := range v {
			s, err := ToSequence(x)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
		return out, nil
	}
	return nil, fmt.Errorf("cannot convert %T to an XDM sequence", value)
}

// Eval executes the query, materializing the result.
func (q *Query) Eval(ctx *Context) (Sequence, error) {
	if ctx == nil {
		ctx = NewContext()
	}
	var seq Sequence
	err := q.traced(ctx, func() error {
		var err error
		seq, err = q.prepared.Eval(ctx.dyn)
		return err
	})
	return seq, err
}

// EvalContext is Eval under a context.Context: cancellation and deadline
// expiry of ctx abort the evaluation with ctx's error. The engine polls
// cancellation on its iterator loops, so even aggregates that never yield
// an item to the caller observe it promptly.
func (q *Query) EvalContext(ctx context.Context, c *Context) (Sequence, error) {
	if c == nil {
		c = NewContext()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.bindContext(ctx)
	var seq Sequence
	err := q.traced(c, func() error {
		var err error
		seq, err = q.prepared.Eval(c.dyn)
		return err
	})
	return seq, err
}

// EvalString executes and serializes the result to XML text.
func (q *Query) EvalString(ctx *Context) (string, error) {
	seq, err := q.Eval(ctx)
	if err != nil {
		return "", err
	}
	return serializer.SequenceToString(seq)
}

// Execute streams the serialized result to w — the paper's minimal
// time-to-first-answer path: output is produced before the input is fully
// consumed, and node-id-free constructed trees are token-piped without
// materialization. With a streaming input attached (WithStreamingInput),
// input parsing and output production interleave: first bytes of output
// appear before the input reader reaches EOF.
func (q *Query) Execute(ctx *Context, w io.Writer) error {
	if ctx == nil {
		ctx = NewContext()
	}
	return q.traced(ctx, func() error {
		if ctx.streamMode {
			if handled, err := q.tryExecuteStream(ctx, w); handled {
				return err
			}
		}
		return q.prepared.ExecuteToWriter(ctx.dyn, w)
	})
}

// ExecuteContext is Execute under a context.Context (see EvalContext).
func (q *Query) ExecuteContext(ctx context.Context, c *Context, w io.Writer) error {
	if c == nil {
		c = NewContext()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c.bindContext(ctx)
	return q.traced(c, func() error {
		if c.streamMode {
			if handled, err := q.tryExecuteStream(c, w); handled {
				return err
			}
		}
		return q.prepared.ExecuteToWriter(c.dyn, w)
	})
}

// Iterator returns a lazy result iterator; Next returns (item, ok, error).
// Call Close when done (also after an error or exhaustion — it is cheap and
// idempotent) to release pooled execution buffers early.
func (q *Query) Iterator(ctx *Context) (ResultIter, error) {
	if ctx == nil {
		ctx = NewContext()
	}
	it, err := q.prepared.RunIterator(ctx.dyn)
	if err != nil {
		return nil, err
	}
	return it, nil
}

// IteratorContext is Iterator under a context.Context (see EvalContext):
// ctx cancellation makes subsequent Next calls fail with ctx's error.
func (q *Query) IteratorContext(ctx context.Context, c *Context) (ResultIter, error) {
	if c == nil {
		c = NewContext()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.bindContext(ctx)
	it, err := q.prepared.RunIterator(c.dyn)
	if err != nil {
		return nil, err
	}
	return it, nil
}

// Items returns the result as a Go range-over-func sequence:
//
//	for item, err := range q.Items(c) {
//		if err != nil { ... }
//	}
//
// Iteration is lazy (items are produced on demand, like Iterator) and the
// underlying iterator is closed when the loop ends, including via break.
// After a non-nil error the sequence ends.
func (q *Query) Items(c *Context) iter.Seq2[Item, error] {
	return func(yield func(Item, error) bool) {
		it, err := q.Iterator(c)
		if err != nil {
			yield(nil, err)
			return
		}
		defer it.Close()
		for {
			item, ok, err := it.Next()
			if err != nil {
				yield(nil, err)
				return
			}
			if !ok {
				return
			}
			if !yield(item, nil) {
				return
			}
		}
	}
}

// ResultIter is the pull interface over a query result. Next returns the
// next item with ok=false at exhaustion; Close releases pooled execution
// resources and is safe to call multiple times.
type ResultIter interface {
	Next() (Item, bool, error)
	Close()
}

// ItemString renders a single item as text (fn:string semantics for
// atomics, XML serialization for nodes).
func ItemString(it Item) (string, error) {
	if n, ok := it.(Node); ok {
		return serializer.NodeToString(n)
	}
	return it.(Atomic).Lexical(), nil
}
