// Command popcornvet lints the replicated-kernel simulator for determinism
// and protocol bugs that ordinary go vet cannot see:
//
//	simtime   wall-clock time, global math/rand, bare go statements and
//	          real sync primitives inside sim-managed packages
//	msgproto  msg.Type enum vs String() names, handler registrations and
//	          send sites; discarded RPC errors
//	locksend  sim.Mutex held across a blocking fabric send or RPC
//	lockorder sim-lock acquisition-order cycles (hierarchy inversions)
//	          and undocumented same-class lock nesting
//	dirver    pageGrant/pageInval composite literals that leave the
//	          directory Version unstamped (error replies exempt)
//	doccomment exported declarations and exported struct fields without
//	          doc comments in the documented-surface packages
//	          (msg, vm, threadgroup, trace)
//	kernlocal handler paths that touch another kernel's state (cluster
//	          table, peer endpoints) or handler-reachable shared
//	          infrastructure, instead of going through msg
//	detorder  nondeterministic ordering on event-visible paths: map
//	          ranges whose order escapes, non-total sort.Slice
//	          comparators, wall-clock/global-rand outside the
//	          sim-managed set
//	sharedmut package-level mutable vars referenced from
//	          handler-reachable code
//	unboundedq appends that grow kernel-side persistent queues without
//	          a //popcornvet:bounded note naming what bounds them
//
// Usage:
//
//	go run ./cmd/popcornvet ./...
//	go run ./cmd/popcornvet -only simtime,locksend ./internal/...
//	go run ./cmd/popcornvet -json . > vet.json
//	go run ./cmd/popcornvet -allowlist . > allowlist.json
//
// Findings print as file:line:col: [rule] message (or, with -json, as a
// JSON array of {file, line, col, analyzer, message} objects on stdout)
// and the exit status is 1 when any exist. Suppress a deliberate violation
// with a justified directive on (or just above) the offending line, or in
// the enclosing declaration's doc comment:
//
//	//popcornvet:allow <rule> <reason>
//
// -allowlist inventories those directives instead of running the analyzers:
// it prints every well-formed waiver as {file, line, analyzer,
// justification} JSON, so CI archives the accepted-exception population
// next to the findings artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/vetcheck"
)

// jsonFinding is the machine-readable form of one finding, stable for CI
// artifact consumers.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	allowlist := flag.Bool("allowlist", false, "inventory //popcornvet:allow waivers as JSON instead of running analyzers")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: popcornvet [-only rules] [-json] [-allowlist] [path ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	for i, r := range roots {
		// Accept go-style ./... patterns: the loader walks recursively anyway.
		r = strings.TrimSuffix(r, "...")
		r = strings.TrimSuffix(r, "/")
		if r == "" {
			r = "."
		}
		roots[i] = r
	}

	analyzers := vetcheck.Analyzers()
	if *only != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var picked []vetcheck.Analyzer
		for _, a := range analyzers {
			if want[a.Name()] {
				picked = append(picked, a)
				delete(want, a.Name())
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "popcornvet: unknown analyzer %q\n", name)
			os.Exit(2)
		}
		analyzers = picked
	}

	tree, err := vetcheck.Load(roots)
	if err != nil {
		fmt.Fprintf(os.Stderr, "popcornvet: %v\n", err)
		os.Exit(2)
	}

	if *allowlist {
		writeJSON(vetcheck.Allowlist(tree))
		return
	}

	findings := vetcheck.Run(tree, analyzers)
	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Rule,
				Message:  f.Message,
			})
		}
		writeJSON(out)
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "popcornvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// writeJSON encodes v indented on stdout, exiting 2 on encoder failure.
func writeJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(os.Stderr, "popcornvet: %v\n", err)
		os.Exit(2)
	}
}
