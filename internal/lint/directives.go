package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// unusedIgnore names the diagnostics reporting //lint:ignore directives
// that suppressed nothing.
const unusedIgnore = "unusedignore"

// ignoreDirective is one //lint:ignore comment; used records whether it
// suppressed at least one diagnostic.
type ignoreDirective struct {
	pos      token.Position
	analyzer string
	used     bool
}

// fileLine is one source line of one file.
type fileLine struct {
	file string
	line int
}

// ignoreSet holds a package's directives in source order, indexed by the
// lines each one covers.
type ignoreSet struct {
	all   []*ignoreDirective
	lines map[fileLine][]*ignoreDirective
}

// collectIgnores gathers every //lint:ignore directive of the package. A
// directive suppresses matching diagnostics on its own line and on the
// line directly below it (the staticcheck convention: the directive sits
// right above, or at the end of, the offending line).
func collectIgnores(pkg *Package) *ignoreSet {
	set := &ignoreSet{lines: make(map[fileLine][]*ignoreDirective)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				dir := &ignoreDirective{pos: pkg.Fset.Position(c.Pos()), analyzer: name}
				set.all = append(set.all, dir)
				for _, ln := range []int{dir.pos.Line, dir.pos.Line + 1} {
					at := fileLine{dir.pos.Filename, ln}
					set.lines[at] = append(set.lines[at], dir)
				}
			}
		}
	}
	return set
}

// parseIgnore recognizes "//lint:ignore <analyzer> <reason>"; the reason
// is mandatory, so every suppression documents why the invariant holds
// anyway.
func parseIgnore(text string) (analyzer string, ok bool) {
	rest, found := strings.CutPrefix(text, "//lint:ignore ")
	if !found {
		return "", false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 { // analyzer + at least one reason word
		return "", false
	}
	return fields[0], true
}

// suppresses reports whether a directive covers d, marking every such
// directive used.
func (s *ignoreSet) suppresses(d Diagnostic) bool {
	hit := false
	for _, dir := range s.lines[fileLine{d.Pos.Filename, d.Pos.Line}] {
		if dir.analyzer == d.Analyzer {
			dir.used = true
			hit = true
		}
	}
	return hit
}

// unused reports every directive that suppressed nothing. Directives
// naming an analyzer that did not run are not judged, so an -only subset
// raises no false reports.
func (s *ignoreSet) unused(ran []*Analyzer) []Diagnostic {
	judged := make(map[string]bool, len(ran))
	for _, a := range ran {
		judged[a.Name] = true
	}
	var out []Diagnostic
	for _, dir := range s.all {
		if !dir.used && judged[dir.analyzer] {
			out = append(out, Diagnostic{
				Pos:      dir.pos,
				Analyzer: unusedIgnore,
				Message:  "//lint:ignore " + dir.analyzer + " suppresses nothing; delete it",
			})
		}
	}
	return out
}

// parseLockOrder recognizes a lock-hierarchy declaration
//
//	//lint:lockorder A < B < C
//
// and returns the chain of lock classes in ascending acquisition order.
// Multiple declarations merge into one partial order; a class may appear
// in several chains.
func parseLockOrder(text string) []string {
	rest, found := strings.CutPrefix(text, "//lint:lockorder ")
	if !found || strings.HasPrefix(rest, "-multi") {
		return nil
	}
	var chain []string
	for _, part := range strings.Split(rest, "<") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil
		}
		chain = append(chain, part)
	}
	if len(chain) < 2 {
		return nil
	}
	return chain
}

// parseLockOrderMulti recognizes
//
//	//lint:lockorder-multi <class> <reason>
//
// declaring that several instances of one lock class are legitimately
// held at once (always acquired in a canonical instance order, which the
// reason documents), so a self-edge on that class is not a deadlock.
func parseLockOrderMulti(text string) (class string, ok bool) {
	rest, found := strings.CutPrefix(text, "//lint:lockorder-multi ")
	if !found {
		return "", false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 { // class + at least one reason word
		return "", false
	}
	return fields[0], true
}

// isIOSourceDirective recognizes "//lint:iosource" on a function's doc
// comment, marking it an I/O-plane error source for the ioerr analyzer —
// used by fixture packages and future entry points outside the canonical
// ssdio/wal/pagefile paths.
func isIOSourceDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == "//lint:iosource" || strings.HasPrefix(c.Text, "//lint:iosource ") {
			return true
		}
	}
	return false
}

// holdsDirectives extracts the //lint:holds directives of a function's
// doc comment: the guard fields (by name) the caller contractually holds
// on entry, e.g. "//lint:holds mu".
func holdsDirectives(doc *ast.CommentGroup) []string {
	if doc == nil {
		return nil
	}
	var out []string
	for _, c := range doc.List {
		rest, found := strings.CutPrefix(c.Text, "//lint:holds ")
		if !found {
			continue
		}
		out = append(out, strings.Fields(rest)...)
	}
	return out
}
