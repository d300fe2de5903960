// Command piolint runs the repository's custom invariant analyzers
// (guardedby, walorder, determinism, snapshotmut, lockorder, ioerr) over
// the given package patterns and exits non-zero if any diagnostic is
// reported, including an unusedignore diagnostic for every
// //lint:ignore directive of a run analyzer that suppressed nothing.
//
// It is a self-contained driver in the shape of a go/analysis
// multichecker: packages are loaded and type-checked from source with
// imports satisfied from `go list -export` data, so it needs nothing
// outside the standard library and the go tool. All loaded packages form
// one whole-program index, which the interprocedural analyzers
// (lockorder, ioerr, guardedby's inferred contracts) share.
//
// Usage:
//
//	go run ./cmd/piolint ./...
//	go run ./cmd/piolint -only guardedby,walorder ./internal/core/...
//	go run ./cmd/piolint -json ./...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

// jsonDiag is the -json wire form of one diagnostic, one object per line.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	only := flag.String("only", "", "comma-separated subset of analyzers to run (default: all)")
	asJSON := flag.Bool("json", false, "emit diagnostics as JSON objects, one per line")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: piolint [-only a,b] [-json] [packages]\n\nanalyzers:\n")
		for _, a := range lint.All {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers := lint.All
	if *only != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		analyzers = nil
		for _, a := range lint.All {
			if want[a.Name] {
				analyzers = append(analyzers, a)
				delete(want, a.Name)
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "piolint: unknown analyzer %q\n", name)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "piolint:", err)
		os.Exit(2)
	}

	prog := lint.NewProgram(pkgs)
	enc := json.NewEncoder(os.Stdout)
	failed := false
	for _, pkg := range pkgs {
		// The lint testdata fixtures deliberately contain violations; a
		// whole-repo run must not trip over its own test corpus.
		if strings.Contains(pkg.Path, "lint/testdata/") {
			continue
		}
		diags, err := lint.RunAnalyzers(prog, pkg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "piolint: %s: %v\n", pkg.Path, err)
			os.Exit(2)
		}
		for _, d := range diags {
			if *asJSON {
				enc.Encode(jsonDiag{
					File:     d.Pos.Filename,
					Line:     d.Pos.Line,
					Column:   d.Pos.Column,
					Analyzer: d.Analyzer,
					Message:  d.Message,
				})
			} else {
				fmt.Printf("%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
			}
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
