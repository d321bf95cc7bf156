// Command xq runs an XQuery against XML documents.
//
// Usage:
//
//	xq [flags] <query | -f query.xq>
//
//	xq -doc bib.xml 'for $b in /bib/book return $b/title'
//	xq -var wlc=config.xml -f transform.xq
//	xq -engine eager -no-opt 'count(//item)'   # baseline engine
//	xq -explain -doc bib.xml -f q1.xq          # EXPLAIN ANALYZE report
//
// The document given with -doc becomes the context item; -var name=file
// binds external variables to parsed documents; -var name:=value binds
// strings.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"xqgo"
)

func main() {
	var (
		docPath   = flag.String("doc", "", "XML document bound as the context item")
		queryFile = flag.String("f", "", "read the query from a file")
		engine    = flag.String("engine", "streaming", "engine: streaming | eager")
		noOpt     = flag.Bool("no-opt", false, "disable the rewriting optimizer")
		disable   = flag.String("disable-rules", "", "comma-separated optimizer rules to disable")
		plan      = flag.Bool("plan", false, "print the optimized expression tree and exit")
		explain   = flag.Bool("explain", false, "run the query, then print the plan, optimizer rewrites, per-operator execution stats and engine counters (subsumes -plan and -time)")
		timing    = flag.Bool("time", false, "print compile/evaluate timings to stderr")
		stream    = flag.Bool("stream", true, "serialize the result incrementally")
	)
	var vars multiFlag
	flag.Var(&vars, "var", "bind external variable: name=docfile or name:=stringvalue (repeatable)")
	flag.Parse()

	src := ""
	switch {
	case *queryFile != "":
		data, err := os.ReadFile(*queryFile)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	case flag.NArg() == 1:
		src = flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: xq [flags] <query | -f query.xq>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	opts := &xqgo.Options{NoOptimize: *noOpt}
	switch *engine {
	case "streaming":
	case "eager":
		opts.Engine = xqgo.Eager
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}
	if *disable != "" {
		opts.DisableRules = strings.Split(*disable, ",")
	}

	t0 := time.Now()
	q, err := xqgo.Compile(src, opts)
	if err != nil {
		fatal(err)
	}
	compileTime := time.Since(t0)
	if *plan {
		fmt.Println(q.PlanInfo().Text)
		return
	}

	ctx := xqgo.NewContext().AllowFilesystem()
	var prof *xqgo.Profile
	if *explain {
		prof = q.NewProfile()
		ctx.WithProfile(prof)
	}
	if *docPath != "" {
		f, err := os.Open(*docPath)
		if err != nil {
			fatal(err)
		}
		doc, err := xqgo.Parse(f, *docPath)
		f.Close()
		if err != nil {
			fatal(err)
		}
		ctx.WithContextNode(doc).RegisterDocument(*docPath, doc)
	}
	for _, v := range vars {
		name, val, isString, err := splitVar(v)
		if err != nil {
			fatal(err)
		}
		if isString {
			ctx.Bind(name, val)
			continue
		}
		f, err := os.Open(val)
		if err != nil {
			fatal(err)
		}
		doc, err := xqgo.Parse(f, val)
		f.Close()
		if err != nil {
			fatal(err)
		}
		ctx.Bind(name, doc)
	}

	t1 := time.Now()
	if *stream {
		err = q.Execute(ctx, os.Stdout)
	} else {
		var out string
		out, err = q.EvalString(ctx)
		if err == nil {
			_, err = os.Stdout.WriteString(out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stdout)
		fatal(err)
	}
	fmt.Println()
	execTime := time.Since(t1)
	if *explain {
		fmt.Println()
		printExplain(os.Stdout, q, prof, compileTime, execTime)
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "compile %v  evaluate %v\n", compileTime, execTime)
	}
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func splitVar(s string) (name, val string, isString bool, err error) {
	if i := strings.Index(s, ":="); i >= 0 {
		return s[:i], s[i+2:], true, nil
	}
	if i := strings.IndexByte(s, '='); i >= 0 {
		return s[:i], s[i+1:], false, nil
	}
	return "", "", false, fmt.Errorf("bad -var %q: want name=docfile or name:=value", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xq:", err)
	os.Exit(1)
}
