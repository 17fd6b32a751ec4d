package lint

import (
	"go/ast"
	"go/types"
)

// Seedflow is the seed-provenance dataflow analyzer, the one check on
// what an explicit seed derives from. It catches the obvious
// rand.NewSource(time.Now().UnixNano()) and the same nondeterminism
// hidden behind a local variable, a helper function, or a caller in
// another package: it chases the seed argument of every explicitly
// seeded RNG constructor in the deterministic estimator packages
// backwards through assignments, function returns, and cross-package
// call sites, and flags any path that bottoms out in a nondeterministic
// root:
//
//   - the wall clock (time.Now)
//   - process identity (os.Getpid / os.Getppid)
//   - pointer identity (unsafe.Pointer→uintptr, reflect Pointer/UnsafeAddr)
//   - package-level mutable state (a global variable read)
//
// Everything else — constants, Options.Seed fields, function parameters
// whose module-visible callers all pass clean values — is accepted: the
// sanctioned scheme derives every stream from (run seed, sample index),
// and those inputs arrive exactly through such paths.
var Seedflow = &Analyzer{
	Name: "seedflow",
	Doc: "RNG seeds in deterministic estimator packages must derive from " +
		"the run seed and sample index; flag seeds tainted by the wall " +
		"clock, process or pointer identity, or global mutable state, " +
		"chasing values through locals, helpers and cross-package callers",
	RunModule: runSeedflow,
}

// seedflowPackage gates where constructor calls are checked. The whole
// module still participates in the dataflow as callers and callees.
func seedflowPackage(p *Package) bool {
	return pathIn(p, true, "mc", "gibbs", "baselines", "model", "sram", "spice", "surrogate")
}

// seedTakingConstructors are the math/rand constructors that take a raw
// seed value; rand.New takes a Source, whose own constructor is checked.
var seedTakingConstructors = map[string]bool{
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// seedTaint describes one nondeterministic root a seed derives from.
type seedTaint struct {
	what string // human description ("the wall clock (time.Now)")
	via  string // optional "file:line" of the cross-function call that carried it
}

// maxSeedHops bounds the caller/callee chase; deeper provenance chains
// are accepted rather than risking quadratic blowup on hot helpers.
const maxSeedHops = 8

type seedflowPass struct {
	ix *moduleIndex
	// paramMemo caches parameter verdicts so a hot helper's callers are
	// classified once; paramBusy breaks recursion cycles.
	paramMemo map[seedParamKey]*seedTaint
	paramBusy map[seedParamKey]bool
	// retBusy breaks cycles when classifying function return values.
	retBusy map[*types.Func]bool
}

type seedParamKey struct {
	fn  *types.Func
	idx int
}

func runSeedflow(pkgs []*Package, report Reporter) {
	s := &seedflowPass{
		ix:        buildIndex(pkgs),
		paramMemo: make(map[seedParamKey]*seedTaint),
		paramBusy: make(map[seedParamKey]bool),
		retBusy:   make(map[*types.Func]bool),
	}
	for _, p := range pkgs {
		if p.Info == nil || !seedflowPackage(p) {
			continue
		}
		for _, fd := range enclosingFuncs(p) {
			fn := fd
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				s.checkConstructor(p, fn, call, report)
				return true
			})
		}
	}
}

// checkConstructor classifies the seed arguments of explicitly seeded
// RNG constructors (math/rand NewSource/NewPCG/NewChaCha8) and of Seed
// methods on module-declared rand sources.
func (s *seedflowPass) checkConstructor(p *Package, fn *ast.FuncDecl, call *ast.CallExpr, report Reporter) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	target := ""
	if obj, _ := pkgMember(p, sel, "math/rand", "math/rand/v2"); obj != nil {
		f, ok := obj.(*types.Func)
		if !ok || !seedTakingConstructors[f.Name()] {
			return
		}
		target = f.Pkg().Name() + "." + f.Name()
	} else {
		// A Seed method on a module-declared source (the index-seeded
		// engine's custom splitmix sources) takes the same contract.
		callee := calleeFunc(p, call)
		if callee == nil || callee.Name() != "Seed" || len(call.Args) != 1 {
			return
		}
		if _, inModule := s.ix.funcs[callee]; !inModule {
			return
		}
		target = types.ExprString(sel.X) + ".Seed"
	}
	for _, arg := range call.Args {
		if t := s.taintOf(p, fn, arg, make(map[types.Object]bool), 0); t != nil {
			msg := "%s is seeded from %s; derive the seed from the run seed and sample index"
			if t.via != "" {
				msg += " (tainted via the call at " + t.via + ")"
			}
			report(call.Pos(), msg, target, t.what)
			return // one report per constructor call
		}
	}
}

// taintOf classifies one expression's provenance in the context of the
// enclosing function declaration (nil for closures' own parameters,
// which are then treated as opaque locals).
func (s *seedflowPass) taintOf(p *Package, fn *ast.FuncDecl, expr ast.Expr, seen map[types.Object]bool, hops int) *seedTaint {
	if hops > maxSeedHops || expr == nil {
		return nil
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.BasicLit:
		return nil
	case *ast.BinaryExpr:
		if t := s.taintOf(p, fn, e.X, seen, hops); t != nil {
			return t
		}
		return s.taintOf(p, fn, e.Y, seen, hops)
	case *ast.UnaryExpr:
		return s.taintOf(p, fn, e.X, seen, hops)
	case *ast.StarExpr:
		return s.taintOf(p, fn, e.X, seen, hops)
	case *ast.CallExpr:
		return s.taintOfCall(p, fn, e, seen, hops)
	case *ast.Ident:
		return s.taintOfIdent(p, fn, e, seen, hops)
	case *ast.SelectorExpr:
		return s.taintOfSelector(p, fn, e, seen, hops)
	}
	return nil
}

// taintOfCall handles the nondeterministic roots that are calls, plus
// interprocedural forwarding: a module function's return value carries
// whatever its return expressions carry.
func (s *seedflowPass) taintOfCall(p *Package, fn *ast.FuncDecl, call *ast.CallExpr, seen map[types.Object]bool, hops int) *seedTaint {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj, path := pkgMember(p, sel, "time", "os", "math/rand", "math/rand/v2"); obj != nil {
			if f, ok := obj.(*types.Func); ok {
				switch {
				case path == "time" && f.Name() == "Now":
					return &seedTaint{what: "the wall clock (time.Now)"}
				case path == "os" && (f.Name() == "Getpid" || f.Name() == "Getppid"):
					return &seedTaint{what: "process identity (os." + f.Name() + ")"}
				default:
					// math/rand members are either sanctioned
					// constructors (their own seed arguments get their
					// own check) or globalrand's problem, not ours.
					return nil
				}
			}
		}
		// reflect.Value.Pointer / UnsafeAddr expose pointer identity.
		if m, ok := p.Info.Uses[sel.Sel].(*types.Func); ok && m.Pkg() != nil && m.Pkg().Path() == "reflect" {
			if m.Name() == "Pointer" || m.Name() == "UnsafeAddr" {
				return &seedTaint{what: "pointer identity (reflect." + m.Name() + ")"}
			}
		}
	}
	// Conversions: uintptr(unsafe.Pointer(...)) is pointer identity.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.Uintptr {
			if at, ok := p.Info.Types[call.Args[0]]; ok {
				if ab, ok := at.Type.Underlying().(*types.Basic); ok && ab.Kind() == types.UnsafePointer {
					return &seedTaint{what: "pointer identity (unsafe.Pointer)"}
				}
			}
		}
		return s.taintOf(p, fn, call.Args[0], seen, hops)
	}
	// A call into the module: classify what the callee returns.
	if callee := calleeFunc(p, call); callee != nil {
		if info, ok := s.ix.funcs[callee]; ok {
			return s.taintOfReturns(info, callee, hops)
		}
	}
	// Unknown callee (stdlib helper, function value): the result is as
	// tainted as its arguments — hash(time.Now().String()) stays dirty.
	for _, arg := range call.Args {
		if t := s.taintOf(p, fn, arg, seen, hops); t != nil {
			return t
		}
	}
	// Method calls carry their receiver's taint too:
	// time.Now().UnixNano() has no arguments, only a dirty receiver.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return s.taintOf(p, fn, sel.X, seen, hops)
	}
	return nil
}

// taintOfReturns classifies every return expression of a module
// function; any tainted return taints the call.
func (s *seedflowPass) taintOfReturns(info funcInfo, fn *types.Func, hops int) *seedTaint {
	if s.retBusy[fn] || info.decl.Body == nil {
		return nil
	}
	s.retBusy[fn] = true
	defer delete(s.retBusy, fn)
	var taint *seedTaint
	ast.Inspect(info.decl.Body, func(n ast.Node) bool {
		if taint != nil {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if t := s.taintOf(info.pkg, info.decl, res, make(map[types.Object]bool), hops+1); t != nil {
				taint = t
				return false
			}
		}
		return true
	})
	return taint
}

// taintOfIdent resolves a bare identifier: constants are clean, global
// variables are mutable state, parameters propagate to every module
// call site, and locals are classified by their assignments.
func (s *seedflowPass) taintOfIdent(p *Package, fn *ast.FuncDecl, id *ast.Ident, seen map[types.Object]bool, hops int) *seedTaint {
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || seen[v] {
		return nil
	}
	seen[v] = true
	if isPackageLevel(v) {
		return &seedTaint{what: "package-level mutable state (" + v.Name() + ")"}
	}
	if fn != nil {
		if idx, isParam := paramIndex(p, fn, v); isParam {
			if fnObj, ok := p.Info.Defs[fn.Name].(*types.Func); ok {
				return s.taintOfParam(fnObj, idx, hops)
			}
			return nil
		}
		for _, rhs := range assignmentsTo(p, fn, v) {
			if t := s.taintOf(p, fn, rhs, seen, hops); t != nil {
				return t
			}
		}
	}
	return nil
}

// taintOfSelector handles field reads x.f: a read through a global
// container is mutable state; a read from a locally built struct is
// classified field-sensitively through its composite literal.
func (s *seedflowPass) taintOfSelector(p *Package, fn *ast.FuncDecl, sel *ast.SelectorExpr, seen map[types.Object]bool, hops int) *seedTaint {
	// Imported package members: pkg.Var is global state, pkg.Const clean.
	if x, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := p.Info.Uses[x].(*types.PkgName); isPkg {
			if v, ok := p.Info.Uses[sel.Sel].(*types.Var); ok && isPackageLevel(v) {
				return &seedTaint{what: "package-level mutable state (" + v.Name() + ")"}
			}
			return nil
		}
	}
	root := rootIdent(sel.X)
	if root == nil {
		return nil
	}
	rootObj, _ := p.Info.Uses[root].(*types.Var)
	if rootObj == nil {
		return nil
	}
	if isPackageLevel(rootObj) {
		return &seedTaint{what: "package-level mutable state (" + rootObj.Name() + ")"}
	}
	// Field-sensitive trace through local composite literals: for
	// o := Options{Seed: <expr>}, o.Seed carries only <expr>'s taint.
	if fn == nil || seen[rootObj] {
		return nil
	}
	fieldName := sel.Sel.Name
	for _, rhs := range assignmentsTo(p, fn, rootObj) {
		lit := compositeLitOf(rhs)
		if lit == nil {
			continue
		}
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == fieldName {
				childSeen := map[types.Object]bool{rootObj: true}
				if t := s.taintOf(p, fn, kv.Value, childSeen, hops); t != nil {
					return t
				}
			}
		}
	}
	return nil
}

// taintOfParam classifies a function parameter by classifying the
// corresponding argument at every module-visible call site. A parameter
// with no module callers (an exported API boundary) is clean: the CLI
// layers feed it flag values.
func (s *seedflowPass) taintOfParam(fn *types.Func, idx int, hops int) *seedTaint {
	key := seedParamKey{fn: fn, idx: idx}
	if t, ok := s.paramMemo[key]; ok {
		return t
	}
	if s.paramBusy[key] || hops > maxSeedHops {
		return nil
	}
	s.paramBusy[key] = true
	defer delete(s.paramBusy, key)
	var taint *seedTaint
	for _, site := range s.ix.calls[fn] {
		if idx >= len(site.call.Args) {
			continue // variadic or mismatched call shape: skip
		}
		if t := s.taintOf(site.pkg, site.caller, site.call.Args[idx], make(map[types.Object]bool), hops+1); t != nil {
			pos := site.pkg.Fset.Position(site.call.Pos())
			taint = &seedTaint{what: t.what, via: pos.String()}
			break
		}
	}
	s.paramMemo[key] = taint
	return taint
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// paramIndex returns v's position in fn's flattened parameter list.
func paramIndex(p *Package, fn *ast.FuncDecl, v *types.Var) (int, bool) {
	if fn.Type.Params == nil {
		return 0, false
	}
	idx := 0
	for _, field := range fn.Type.Params.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		for _, name := range field.Names {
			if p.Info.Defs[name] == v {
				return idx, true
			}
			idx++
		}
	}
	return 0, false
}

// assignmentsTo collects the right-hand sides assigned to obj anywhere
// in fn's body (both := and =, including parallel assignment).
func assignmentsTo(p *Package, fn *ast.FuncDecl, obj types.Object) []ast.Expr {
	var out []ast.Expr
	if fn.Body == nil {
		return nil
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				lobj := p.Info.Defs[id]
				if lobj == nil {
					lobj = p.Info.Uses[id]
				}
				if lobj != obj {
					continue
				}
				if len(st.Rhs) == len(st.Lhs) {
					out = append(out, st.Rhs[i])
				} else if len(st.Rhs) == 1 {
					out = append(out, st.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if p.Info.Defs[name] == obj && i < len(st.Values) {
					out = append(out, st.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// compositeLitOf unwraps &T{...} and T{...} to the literal.
func compositeLitOf(e ast.Expr) *ast.CompositeLit {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return x
	case *ast.UnaryExpr:
		if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
			return lit
		}
	}
	return nil
}
