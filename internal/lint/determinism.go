package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism forbids nondeterminism sources in the vtime-simulated
// packages (internal/core, internal/bench, internal/flashsim,
// internal/vtime), whose BENCH_*.json trajectories must be bit-for-bit
// reproducible for the checked-in baselines to mean anything:
//
//   - wall-clock reads (time.Now/Since/Until): all timing must come from
//     the virtual clock;
//   - the global math/rand generator (rand.Intn, rand.Float64, ...):
//     its state is shared process-wide, so any concurrent draw reorders
//     every later draw. Experiments must thread a seeded *rand.Rand
//     (rand.New/NewSource/NewZipf are the allowed constructors);
//   - map-iteration-order dependence: appending to an outer slice inside
//     a `for ... range m` over a map (unless the slice is sorted
//     afterwards in the same function), and calls carrying vtime.Ticks
//     inside such a loop (each iteration would advance the virtual
//     timeline in random order).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global math/rand, and map-iteration-order dependence in vtime-simulated packages",
	Run:  runDeterminism,
}

var determinismScope = scopedTo("determinism",
	"repro/internal/core",
	"repro/internal/bench",
	"repro/internal/flashsim",
	"repro/internal/faultio",
	"repro/internal/scenario",
	"repro/internal/vtime",
)

// allowedRandConstructors build isolated generators and are fine.
var allowedRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

var forbiddenTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runDeterminism(pass *Pass) error {
	if !determinismScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondeterministicCall(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

func checkNondeterministicCall(pass *Pass, call *ast.CallExpr) {
	fn := funcOf(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil { // methods on *rand.Rand etc. are fine
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock in a vtime-simulated package; all timing must come from the virtual clock", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"global math/rand %s draws from process-shared state; thread a seeded *rand.Rand from the experiment config instead", fn.Name())
		}
	}
}

// checkMapRanges flags map-iteration-order-dependent writes in fn.
func checkMapRanges(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, fn, rng)
		return true
	})
}

func checkMapRangeBody(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if !isAppendCall(n.Rhs[i]) {
					continue
				}
				obj := pass.TypesInfo.Uses[id]
				if obj == nil || obj.Pos() >= rng.Pos() {
					continue // slice local to the loop
				}
				if sortedAfter(pass, fn, rng, obj) {
					continue
				}
				pass.Reportf(n.Pos(),
					"append to %s inside map iteration is order-dependent; sort %s afterwards or iterate a sorted key slice", id.Name, id.Name)
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				tv, ok := pass.TypesInfo.Types[arg]
				if ok && isVtimeTicks(tv.Type) {
					pass.Reportf(n.Pos(),
						"virtual-time call inside map iteration advances the vtime timeline in nondeterministic order; iterate a sorted key slice")
					break
				}
			}
		}
		return true
	})
}

func isAppendCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append"
}

// sortedAfter reports whether obj is passed to a sorting call after the
// range loop, anywhere later in the function: sort.*/slices.Sort* with
// the slice as an argument, or any function whose name contains "Sort"
// (kv.SortRecords and friends).
func sortedAfter(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}

func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	if fn := funcOf(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil {
		path := fn.Pkg().Path()
		if path == "sort" || path == "slices" {
			return true
		}
	}
	return strings.Contains(calleeName(call), "Sort")
}
