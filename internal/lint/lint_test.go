package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// want is one expectation parsed from a fixture's `// want` comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRe = regexp.MustCompile("`([^`]+)`")

// testAnalyzer runs one analyzer over its fixture package under
// internal/lint/testdata/src/<name> and diffs the diagnostics against the
// fixture's `// want` annotations, analysistest style: every want must be
// matched by a diagnostic on its line, and every diagnostic must be
// expected.
func testAnalyzer(t *testing.T, a *Analyzer) {
	t.Helper()
	testFixture(t, a, "repro/internal/lint/testdata/src/"+a.Name)
}

// testFixture runs one analyzer over the fixture package at the given
// import path, with the whole-program index built from just that package.
func testFixture(t *testing.T, a *Analyzer, path string) {
	t.Helper()
	pkgs, err := Load(path)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	diags, err := RunAnalyzers(NewProgram(pkgs), pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	wants := collectWants(t, pkg)

	for _, d := range diags {
		if w := matchWant(wants, d.Pos.Filename, d.Pos.Line, d.Message); w != nil {
			w.hit = true
			continue
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none",
				filepath.Base(w.file), w.line, w.re)
		}
	}
}

func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantRe.FindAllStringSubmatch(c.Text[idx:], -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q (expected backquoted regexp)",
						pos.Filename, pos.Line, c.Text)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

func matchWant(wants []*want, file string, line int, msg string) *want {
	for _, w := range wants {
		if !w.hit && w.file == file && w.line == line && w.re.MatchString(msg) {
			return w
		}
	}
	return nil
}

func TestGuardedBy(t *testing.T)   { testAnalyzer(t, GuardedBy) }
func TestWALOrder(t *testing.T)    { testAnalyzer(t, WALOrder) }
func TestDeterminism(t *testing.T) { testAnalyzer(t, Determinism) }
func TestSnapshotMut(t *testing.T) { testAnalyzer(t, SnapshotMut) }
func TestLockOrder(t *testing.T)   { testAnalyzer(t, LockOrder) }
func TestIOErr(t *testing.T)       { testAnalyzer(t, IOErr) }

// TestLockOrderCycleInjection is the negative control for the CI gate: a
// fixture whose call graph contains a deliberate lock-order inversion
// (and therefore a cycle) must fail the lint run.
func TestLockOrderCycleInjection(t *testing.T) {
	testFixture(t, LockOrder, "repro/internal/lint/testdata/src/lockordercycle")
}

// TestUnusedIgnore: a directive whose analyzer ran but suppressed nothing
// is reported; used directives and those of analyzers outside the run
// are not.
func TestUnusedIgnore(t *testing.T) {
	testFixture(t, GuardedBy, "repro/internal/lint/testdata/src/unusedignore")
}

// TestRepoIsClean is the in-process form of the CI gate: the full
// analyzer suite over the production packages must report nothing.
func TestRepoIsClean(t *testing.T) {
	pkgs, err := Load("repro/...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	prog := NewProgram(pkgs)
	for _, pkg := range pkgs {
		if strings.Contains(pkg.Path, "lint/testdata/") {
			continue
		}
		diags, err := RunAnalyzers(prog, pkg, All)
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

// TestIgnoreRequiresReason pins the escape hatch's contract: a bare
// //lint:ignore without a reason does not suppress anything.
func TestIgnoreRequiresReason(t *testing.T) {
	if name, ok := parseIgnore("//lint:ignore guardedby"); ok {
		t.Fatalf("reasonless ignore parsed as %q, want rejection", name)
	}
	if _, ok := parseIgnore("//lint:ignore guardedby held by construction"); !ok {
		t.Fatalf("well-formed ignore rejected")
	}
}
