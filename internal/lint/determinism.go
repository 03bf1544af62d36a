package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// DeterminismPackages selects the packages the determinism analyzer
// enforces: the pure-simulation and output-producing layers, whose bytes
// must be identical at any worker count, shard split, or fleet shape.
// Overridable via cmd/reprolint's -determinism.packages flag (and set
// directly by tests).
var DeterminismPackages = regexp.MustCompile(
	`^repro($|/internal/(machine|runner|adversary|experiments|stats|store|remote|mutex)(/|$)|/cmd/(experiments|tournament|lowerbound|mutexsim)$)`)

// Determinism rejects the three classic sources of run-to-run
// nondeterminism in output-producing code:
//
//   - ranging over a map where the iteration order can leak into the
//     result. A map range is accepted only when its body is provably
//     order-insensitive (commutative integer folds, map/set writes,
//     appends to a slice that is subsequently sorted in the same
//     function) or carries a //repro:unordered justification;
//   - wall-clock reads (time.Now/Since/Until) without a //repro:wallclock
//     justification stating the value never reaches canonical output;
//   - math/rand package-level functions, which draw from the global,
//     unseeded source. Seeded generators (rand.New(rand.NewSource(s)))
//     and their methods are fine — determinism comes from the seed.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "reject map-iteration order, wall clocks, and unseeded randomness on result paths",
	Run:  runDeterminism,
}

func runDeterminism(p *Pass) {
	if !DeterminismPackages.MatchString(basePkgPath(p.Pkg.Path())) {
		return
	}
	for _, f := range p.SourceFiles() {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				// Package-level initializers can capture a clock too
				// (`var nowFn = time.Now`).
				ast.Inspect(decl, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						checkClockAndRand(p, sel)
					}
					return true
				})
				continue
			}
			if fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					// Covers calls and bare references alike: assigning
					// time.Now to a hook variable is as order-breaking as
					// calling it.
					checkClockAndRand(p, n)
				case *ast.RangeStmt:
					checkMapRange(p, fn, n)
				}
				return true
			})
		}
	}
}

// checkClockAndRand flags wall-clock reads and global-source randomness.
func checkClockAndRand(p *Pass, sel *ast.SelectorExpr) {
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			if !p.Dirs.LineHas(p.Fset, sel.Pos(), "wallclock") {
				p.Reportf(sel.Pos(), "time.%s in a deterministic package: wall-clock values must never feed canonical output (annotate //repro:wallclock <reason> if this stays on stderr or infrastructure metadata)", fn.Name())
			}
		}
	case "math/rand", "math/rand/v2":
		if fn.Signature().Recv() != nil {
			return // methods on an explicitly seeded *rand.Rand are fine
		}
		switch fn.Name() {
		case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
			return // constructors: the caller supplies the seed
		}
		p.Reportf(sel.Pos(), "%s.%s draws from the global unseeded source; construct a seeded generator (rand.New(rand.NewSource(seed))) so runs replay byte-identically", fn.Pkg().Name(), fn.Name())
	}
}

// checkMapRange enforces the map-iteration rule on one range statement.
func checkMapRange(p *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) {
	tv, ok := p.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if p.Dirs.LineHas(p.Fset, rng.Pos(), "unordered") {
		return
	}
	appended := map[types.Object]bool{}
	if !orderInsensitiveBody(p, rng.Body.List, appended) {
		p.Reportf(rng.Pos(), "map iteration order can reach the result: sort the keys first, restrict the body to an order-insensitive fold, or annotate //repro:unordered <reason>")
		return
	}
	for obj := range appended {
		if !sortedAfter(p, fn, obj, rng.End()) {
			p.Reportf(rng.Pos(), "slice %q is built from map iteration but never sorted afterwards in this function", obj.Name())
		}
	}
}

// orderInsensitiveBody reports whether every statement is one whose
// effect is independent of iteration order: appends (recorded in appended
// for the later-sorted check), map index writes, commutative integer/bool
// accumulation, deletes, and control flow over the same. Anything else —
// calls, sends, string or float accumulation, returns — disqualifies the
// body; order-insensitivity must be provable, not plausible.
func orderInsensitiveBody(p *Pass, stmts []ast.Stmt, appended map[types.Object]bool) bool {
	for _, s := range stmts {
		if !orderInsensitiveStmt(p, s, appended) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(p *Pass, s ast.Stmt, appended map[types.Object]bool) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return orderInsensitiveAssign(p, s, appended)
	case *ast.IncDecStmt:
		return isIntOrBool(p, s.X) && pureExpr(p, s.X)
	case *ast.IfStmt:
		if s.Init != nil && !orderInsensitiveStmt(p, s.Init, appended) {
			return false
		}
		if !pureExpr(p, s.Cond) || !orderInsensitiveBody(p, s.Body.List, appended) {
			return false
		}
		return s.Else == nil || orderInsensitiveStmt(p, s.Else, appended)
	case *ast.BlockStmt:
		return orderInsensitiveBody(p, s.List, appended)
	case *ast.ForStmt:
		if s.Cond != nil && !pureExpr(p, s.Cond) {
			return false
		}
		if s.Init != nil && !orderInsensitiveStmt(p, s.Init, appended) {
			return false
		}
		if s.Post != nil && !orderInsensitiveStmt(p, s.Post, appended) {
			return false
		}
		return orderInsensitiveBody(p, s.Body.List, appended)
	case *ast.RangeStmt:
		// A nested range over a slice (or the map value) with an
		// order-insensitive body stays order-insensitive. A nested map
		// range is checked on its own by the outer walk.
		return pureExpr(p, s.X) && orderInsensitiveBody(p, s.Body.List, appended)
	case *ast.SwitchStmt:
		if s.Tag != nil && !pureExpr(p, s.Tag) {
			return false
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				if !pureExpr(p, e) {
					return false
				}
			}
			if !orderInsensitiveBody(p, cc.Body, appended) {
				return false
			}
		}
		return true
	case *ast.ExprStmt:
		// Only builtin delete/clear calls have order-independent effects.
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := p.Info.Uses[id].(*types.Builtin); ok && (b.Name() == "delete" || b.Name() == "clear") {
				return true
			}
		}
		return false
	case *ast.DeclStmt:
		gen, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gen.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					if !pureExpr(p, v) {
						return false
					}
				}
			}
		}
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE || s.Tok == token.BREAK
	case *ast.EmptyStmt:
		return true
	}
	return false
}

// orderInsensitiveAssign classifies one assignment inside a map range.
func orderInsensitiveAssign(p *Pass, s *ast.AssignStmt, appended map[types.Object]bool) bool {
	// Operator assignments: commutative accumulation on integers/bools.
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return len(s.Lhs) == 1 && isIntOrBool(p, s.Lhs[0]) && pureExpr(p, s.Lhs[0]) && pureExpr(p, s.Rhs[0])
	case token.ASSIGN, token.DEFINE:
		// handled below
	default:
		return false
	}
	if len(s.Lhs) != len(s.Rhs) {
		return false
	}
	for i, lhs := range s.Lhs {
		rhs := s.Rhs[i]
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			// m[k] = v: a map write is order-insensitive (each key written
			// through the range variable lands once).
			tv, ok := p.Info.Types[lhs.X]
			if !ok {
				return false
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return false
			}
			if !pureExpr(p, lhs.Index) || !pureExpr(p, rhs) {
				return false
			}
		case *ast.Ident:
			// s = append(s, ...): the order is absorbed by a later sort
			// (checked by the caller). Plain redefinitions of locals with
			// pure values are harmless per-iteration temporaries.
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				id, _ := ast.Unparen(call.Fun).(*ast.Ident)
				if id != nil {
					if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) >= 1 {
						base, _ := ast.Unparen(call.Args[0]).(*ast.Ident)
						if base != nil && base.Name == lhs.Name {
							for _, a := range call.Args[1:] {
								if !pureExpr(p, a) {
									return false
								}
							}
							if obj := exprObject(p, lhs); obj != nil {
								appended[obj] = true
								continue
							}
						}
					}
				}
			}
			if s.Tok == token.DEFINE && pureExpr(p, rhs) {
				continue // fresh per-iteration temporary
			}
			return false
		default:
			return false
		}
	}
	return true
}

// pureExpr reports whether evaluating e has no effects the iteration
// order could reorder: no calls (except builtins and conversions), no
// closures, no channel operations.
func pureExpr(p *Pass, e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fun := ast.Unparen(n.Fun)
			if tv, ok := p.Info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
				return true // conversion or builtin: effect-free
			}
			pure = false
			return false
		case *ast.FuncLit:
			pure = false
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW { // channel receive: ordered effect
				pure = false
				return false
			}
		}
		return true
	})
	return pure
}

// isIntOrBool reports whether e's type is an integer or boolean —
// the types whose += / |= / ^= accumulation is order-insensitive.
// (Floating-point addition is not associative; string += is ordered.)
func isIntOrBool(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

// exprObject resolves an identifier or selector to its object.
func exprObject(p *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := p.Info.Uses[e]; obj != nil {
			return obj
		}
		return p.Info.Defs[e]
	case *ast.SelectorExpr:
		return p.Info.Uses[e.Sel]
	}
	return nil
}

// sortedAfter reports whether obj (a slice) is passed to a sort.* or
// slices.Sort* call after pos within fn.
func sortedAfter(p *Pass, fn *ast.FuncDecl, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		callee := calleeFunc(p.Info, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		pkg, name := callee.Pkg().Path(), callee.Name()
		isSort := pkg == "sort" || (pkg == "slices" && len(name) >= 4 && name[:4] == "Sort")
		if !isSort || len(call.Args) == 0 {
			return true
		}
		if exprObject(p, call.Args[0]) == obj {
			found = true
		}
		return true
	})
	return found
}
