// Package lint is a suite of custom static analyzers that machine-check
// the forest's prose invariants: mutex guards on hot struct fields
// (guardedby), the WAL protocol's force-before-publish discipline
// (walorder), the determinism rules of the vtime-simulated packages
// (determinism), and the immutability of published routing snapshots
// (snapshotmut).
//
// The framework mirrors golang.org/x/tools/go/analysis — Analyzer, Pass,
// Diagnostic — but is self-contained on the standard library: packages
// are parsed from source and type-checked against export data produced
// by `go list -export`, so the suite builds with zero third-party
// dependencies.
//
// Diagnostics can be suppressed with an escape hatch comment on the
// flagged line or the line above it:
//
//	//lint:ignore <analyzer> <reason>
//
// A directive that suppresses nothing is itself reported (as
// unusedignore), so stale suppressions cannot pile up. guardedby accepts
// a caller-holds-the-lock contract on a function's doc comment:
//
//	//lint:holds <field>
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// directives.
	Name string
	// Doc describes the invariant the analyzer enforces.
	Doc string
	// Run reports the analyzer's findings on one package via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package. Prog is
// the whole-program index shared by every pass of one run; the
// interprocedural analyzers cache their summaries on it.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Prog      *Program

	pkgRef *Package
	diags  *[]Diagnostic
}

// pkg returns the loaded package this pass analyzes.
func (p *Pass) pkg() *Package { return p.pkgRef }

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic in the standard file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All is the full analyzer suite in the order piolint runs it.
var All = []*Analyzer{GuardedBy, WALOrder, Determinism, SnapshotMut, LockOrder, IOErr}

// RunAnalyzers executes the analyzers over pkg — with prog supplying the
// whole-program context the interprocedural analyzers need — and returns
// their findings, with //lint:ignore-suppressed diagnostics already
// filtered out, an unusedignore finding for every directive of a run
// analyzer that suppressed nothing, and the lot sorted by position.
func RunAnalyzers(prog *Program, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Prog:      prog,
			pkgRef:    pkg,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	ignores := collectIgnores(pkg)
	kept := diags[:0]
	for _, d := range diags {
		if !ignores.suppresses(d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, ignores.unused(analyzers)...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}
