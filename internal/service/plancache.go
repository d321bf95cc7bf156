package service

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"

	"xqgo"
)

// PlanCache is an LRU cache of compiled queries keyed by (query text,
// Options fingerprint): hot queries skip parse + optimize + compile and go
// straight to execution, which is safe because a compiled *xqgo.Query is
// immutable and concurrency-safe. Concurrent first requests for the same
// key are collapsed into one compilation (single-flight); the waiters
// count as hits — they share the plan without compiling.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	byKey    map[string]*list.Element
	inflight map[string]*planCall

	hits, misses, evictions uint64
}

type planEntry struct {
	key string
	q   *xqgo.Query
}

type planCall struct {
	done chan struct{}
	q    *xqgo.Query
	err  error
}

// NewPlanCache creates a cache holding at most capacity plans (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
		inflight: make(map[string]*planCall),
	}
}

// Fingerprint canonicalizes the compile options and joins them with the
// query text into the cache key. DisableRules is order-insensitive.
func Fingerprint(src string, opts *xqgo.Options) string {
	var o xqgo.Options
	if opts != nil {
		o = *opts
	}
	rules := append([]string(nil), o.DisableRules...)
	sort.Strings(rules)
	return fmt.Sprintf("e%d|no%t|r%s|st%d|mm%t\x00%s",
		o.Engine, o.NoOptimize, strings.Join(rules, ","),
		o.Strategy, o.MemoizeFunctions, src)
}

// Get returns the compiled plan for (src, opts), compiling on a miss.
// cached reports whether the plan came from the cache (including waiting
// on another request's in-flight compilation). Failed compilations are not
// cached; every request for a bad query re-reports the compile error.
func (p *PlanCache) Get(src string, opts *xqgo.Options) (q *xqgo.Query, cached bool, err error) {
	key := Fingerprint(src, opts)

	p.mu.Lock()
	if el, ok := p.byKey[key]; ok {
		p.ll.MoveToFront(el)
		p.hits++
		q := el.Value.(*planEntry).q
		p.mu.Unlock()
		return q, true, nil
	}
	if call, ok := p.inflight[key]; ok {
		p.hits++
		p.mu.Unlock()
		<-call.done
		return call.q, true, call.err
	}
	call := &planCall{done: make(chan struct{})}
	p.inflight[key] = call
	p.misses++
	p.mu.Unlock()

	call.q, call.err = xqgo.Compile(src, opts)

	p.mu.Lock()
	delete(p.inflight, key)
	if call.err == nil {
		el := p.ll.PushFront(&planEntry{key: key, q: call.q})
		p.byKey[key] = el
		for p.ll.Len() > p.capacity {
			back := p.ll.Back()
			p.ll.Remove(back)
			delete(p.byKey, back.Value.(*planEntry).key)
			p.evictions++
		}
	}
	p.mu.Unlock()
	close(call.done)
	return call.q, false, call.err
}

// PlanCacheStats is a point-in-time view of the cache counters.
type PlanCacheStats struct {
	Size      int     `json:"size"`
	Capacity  int     `json:"capacity"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRatio  float64 `json:"hitRatio"`
}

// Stats snapshots the counters.
func (p *PlanCache) Stats() PlanCacheStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := PlanCacheStats{
		Size:      p.ll.Len(),
		Capacity:  p.capacity,
		Hits:      p.hits,
		Misses:    p.misses,
		Evictions: p.evictions,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits) / float64(total)
	}
	return s
}
