package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WALOrder flags violations of the forest's WAL protocol in
// internal/core. The protocol (documented at the top of
// internal/core/rebalance.go and in the flush coordinator) demands:
//
//   - a KeyMoved record may only be appended after a Force of the
//     destination log (KeyMoved durable implies the chunk's copies are
//     durable), so appending it without a dominating Force/ForceGroup/
//     forceLogs call earlier in the function is flagged;
//   - FlushEnd, MigrationEnd, and KeyMoved records are commit points:
//     after appending one, the function must force the log (directly,
//     via the ganged forceLogs, or as a force method value threaded
//     through a retry helper like retryIO(at, log.Force)) before
//     returning;
//   - a routing snapshot or frontier must not be published (publish /
//     atomic Store) while such a record is appended but not yet forced —
//     readers would act on routing the log cannot yet justify.
//
// The check is a source-order protocol scan per function: force calls
// set/clear state as encountered, so conditionally-forced paths are
// accepted (any-path semantics); it is a linter for ordering mistakes,
// not a proof of durability. A call to a closing helper of the same
// package — one that appends a commit record and forces after it, leaving
// nothing pending — also makes durable the caller's records on a log
// derived from a variable the call passes it (directly, or through the
// local assignments that produced the log); records on other logs stay
// pending. It does not stand in for the destination force a KeyMoved
// needs.
var WALOrder = &Analyzer{
	Name: "walorder",
	Doc:  "check force-before-publish ordering of WAL protocol records in internal/core",
	Run:  runWALOrder,
}

var walorderScope = scopedTo("walorder", "repro/internal/core")

// trackedKinds are the WAL record kinds whose append is a protocol
// commit point.
var trackedKinds = map[string]bool{
	"KindKeyMoved":     true,
	"KindFlushEnd":     true,
	"KindMigrationEnd": true,
}

// forceCallees are the calls that make appended records durable.
var forceCallees = map[string]bool{
	"Force":      true,
	"ForceGroup": true,
	"forceLogs":  true,
}

// publishCallees are the calls that publish routing state to readers.
var publishCallees = map[string]bool{
	"publish": true,
	"Store":   true,
}

func runWALOrder(pass *Pass) error {
	if !walorderScope(pass.Pkg.Path()) {
		return nil
	}
	closing := closingFuncs(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := newWALWalker(pass, closing, false)
			w.walk(fd.Body)
			for _, p := range w.pending {
				pass.Reportf(p.pos,
					"%s appended but not forced before the function returns (the WAL protocol requires a Force/ForceGroup after this commit record)",
					p.kind)
			}
		}
	}
	return nil
}

// closingFuncs returns the package's closing helpers: functions whose
// own scan sees a force clear a tracked record appended before it, and
// ends with nothing pending.
func closingFuncs(pass *Pass) map[*types.Func]bool {
	out := make(map[*types.Func]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := newWALWalker(pass, nil, true)
			w.walk(fd.Body)
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && w.closed && len(w.pending) == 0 {
				out[fn] = true
			}
		}
	}
	return out
}

// walWalker scans one function body in source order.
type walWalker struct {
	pass    *Pass
	closing map[*types.Func]bool
	// quiet suppresses diagnostics (the closing-helper pre-scan).
	quiet     bool
	forceSeen bool
	// closed records that a force cleared at least one pending record.
	closed  bool
	pending []walPending
	// recKinds tracks `rec := wal.Record{Kind: ...}` assignments so a
	// later Append(rec) resolves the record's kind.
	recKinds map[types.Object]string
	// from maps each assigned local to the variables its value was
	// computed from, so a log picked out of a set traces back to the set.
	from map[types.Object][]types.Object
}

func newWALWalker(pass *Pass, closing map[*types.Func]bool, quiet bool) *walWalker {
	return &walWalker{
		pass:     pass,
		closing:  closing,
		quiet:    quiet,
		recKinds: make(map[types.Object]string),
		from:     make(map[types.Object][]types.Object),
	}
}

type walPending struct {
	pos  token.Pos
	kind string
	// logVars are the variables the appended-to log derives from.
	logVars map[types.Object]bool
}

func (w *walWalker) report(pos token.Pos, format string, args ...any) {
	if !w.quiet {
		w.pass.Reportf(pos, format, args...)
	}
}

func (w *walWalker) walk(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			w.recordAssign(n)
		case *ast.CallExpr:
			w.call(n)
		}
		return true
	})
}

// recordAssign remembers the kind of record composite literals bound to
// identifiers, so Append(identifier) calls resolve their kind, and the
// variables each assigned value was computed from.
func (w *walWalker) recordAssign(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := w.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = w.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		w.from[obj] = w.vars(s.Rhs[i])
		if kind := compositeKind(s.Rhs[i]); kind != "" {
			w.recKinds[obj] = kind
		}
	}
}

// vars returns the variables e names, struct fields excluded.
func (w *walWalker) vars(e ast.Expr) []types.Object {
	var out []types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := w.pass.TypesInfo.Uses[id].(*types.Var); ok && !v.IsField() {
				out = append(out, v)
			}
		}
		return true
	})
	return out
}

// derived returns the variables e names and, transitively, those their
// assigned values were computed from.
func (w *walWalker) derived(e ast.Expr) map[types.Object]bool {
	seen := make(map[types.Object]bool)
	work := w.vars(e)
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		if !seen[v] {
			seen[v] = true
			work = append(work, w.from[v]...)
		}
	}
	return seen
}

// compositeKind extracts the tracked Kind of a Record composite literal.
func compositeKind(e ast.Expr) string {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return ""
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Kind" {
			continue
		}
		name := ""
		switch v := ast.Unparen(kv.Value).(type) {
		case *ast.Ident:
			name = v.Name
		case *ast.SelectorExpr:
			name = v.Sel.Name
		}
		if trackedKinds[name] {
			return name
		}
	}
	return ""
}

func (w *walWalker) call(call *ast.CallExpr) {
	name := calleeName(call)
	switch {
	case forceCallees[name] || wrappedForce(call):
		w.forceSeen = true
		w.closed = w.closed || len(w.pending) > 0
		w.pending = w.pending[:0]
	case w.closing[funcOf(w.pass.TypesInfo, call)]:
		w.closeThrough(call)
	case name == "Append" && len(call.Args) >= 1:
		kind := w.appendKind(call.Args[0])
		if kind == "" {
			return
		}
		if kind == "KindKeyMoved" && !w.forceSeen {
			w.report(call.Pos(),
				"KeyMoved appended without a dominating Force of the destination log (the chunk's copies must be durable first)")
		}
		p := walPending{pos: call.Pos(), kind: kind}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			p.logVars = w.derived(sel.X)
		}
		w.pending = append(w.pending, p)
	case publishCallees[name]:
		for _, p := range w.pending {
			w.report(call.Pos(),
				"routing state published while %s is appended but not forced (force the log before publishing)", p.kind)
		}
	}
}

// closeThrough drops the pending records whose log derives from a
// variable passed to the closing helper call: the helper's force covers
// them. Records on logs the call is not given stay pending.
func (w *walWalker) closeThrough(call *ast.CallExpr) {
	var passed []types.Object
	for _, a := range call.Args {
		passed = append(passed, w.vars(a)...)
	}
	kept := w.pending[:0]
	for _, p := range w.pending {
		covered := false
		for _, v := range passed {
			covered = covered || p.logVars[v]
		}
		if !covered {
			kept = append(kept, p)
		}
	}
	w.pending = kept
}

// wrappedForce recognizes a force threaded through a retry helper —
// retryIO(at, log.Force) passes the force as a method value the helper
// invokes (possibly several times; WAL forces resubmit the whole
// unforced tail, so a retried force is still a force).
func wrappedForce(call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if sel, ok := ast.Unparen(a).(*ast.SelectorExpr); ok && forceCallees[sel.Sel.Name] {
			return true
		}
	}
	return false
}

func (w *walWalker) appendKind(arg ast.Expr) string {
	if kind := compositeKind(arg); kind != "" {
		return kind
	}
	if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
		if obj := w.pass.TypesInfo.Uses[id]; obj != nil {
			return w.recKinds[obj]
		}
	}
	return ""
}
