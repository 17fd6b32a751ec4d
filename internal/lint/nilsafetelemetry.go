package lint

import (
	"go/ast"
	"go/token"
)

// NilSafeTelemetry enforces the telemetry package's core contract: a nil
// *Registry — and every handle derived from one — turns all recording
// into no-ops, so instrumented hot paths pay one nil check when
// telemetry is disabled and zero allocations. That only holds if every
// exported method on every pointer-receiver type begins with a
// nil-receiver guard; one unguarded method is a latent panic on the
// disabled path that no amount of sampling-based testing reliably
// catches.
//
// The obslog package adopts the same contract for its *Logger (library
// code logs unconditionally; a nil logger is "logging off"), so the
// analyzer covers both packages. The telemetry types the dist daemons
// use (SpanSnapshot, MetricPoint) live in telemetry and are checked by
// the same sweep.
var NilSafeTelemetry = &Analyzer{
	Name: "nilsafetelemetry",
	Doc: "every exported method on a telemetry or obslog pointer-receiver " +
		"type must begin with a nil-receiver guard (the zero-alloc " +
		"disabled path depends on it)",
	Applies: func(p *Package) bool {
		if p.Pkg == nil {
			return false
		}
		name := p.Pkg.Name()
		return name == "telemetry" || name == "obslog"
	},
	Run: runNilSafeTelemetry,
}

func runNilSafeTelemetry(p *Package, report Reporter) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			recv := fn.Recv.List[0]
			if _, ok := recv.Type.(*ast.StarExpr); !ok {
				continue // value receiver: a nil pointer can't reach it
			}
			if len(recv.Names) == 0 || recv.Names[0].Name == "_" {
				continue // receiver unused; nothing to dereference
			}
			name := recv.Names[0].Name
			if !beginsWithNilGuard(fn.Body, name) {
				report(fn.Pos(),
					"exported method %s on pointer receiver *%s does not begin with an `if %s == nil` guard; the nil-disabled telemetry path would panic",
					fn.Name.Name, receiverTypeName(recv.Type), name)
			}
		}
	}
}

// beginsWithNilGuard reports whether the body starts with a recognised
// nil-receiver guard:
//
//	if r == nil { return ... }       (possibly `r == nil || more`)
//	return r == nil / r != nil ...   (single-return bodies like Enabled)
func beginsWithNilGuard(body *ast.BlockStmt, recv string) bool {
	if len(body.List) == 0 {
		return false
	}
	switch first := body.List[0].(type) {
	case *ast.IfStmt:
		if first.Init != nil {
			return false
		}
		if !condGuardsNil(first.Cond, recv) {
			return false
		}
		// The guarded branch must leave the method.
		if n := len(first.Body.List); n > 0 {
			_, ok := first.Body.List[n-1].(*ast.ReturnStmt)
			return ok
		}
		return false
	case *ast.ReturnStmt:
		// A one-liner whose result is derived from the nil comparison
		// itself (e.g. `return r != nil`).
		if len(body.List) != 1 {
			return false
		}
		for _, res := range first.Results {
			if exprComparesNil(res, recv) {
				return true
			}
		}
		return false
	}
	return false
}

// condGuardsNil accepts `recv == nil` and `recv == nil || <anything>`:
// in both, a nil receiver is guaranteed to take the branch.
func condGuardsNil(cond ast.Expr, recv string) bool {
	switch e := cond.(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LOR {
			return condGuardsNil(e.X, recv)
		}
		return e.Op == token.EQL && isRecvNilComparison(e, recv)
	case *ast.ParenExpr:
		return condGuardsNil(e.X, recv)
	}
	return false
}

// exprComparesNil reports whether expr contains `recv == nil` or
// `recv != nil`.
func exprComparesNil(expr ast.Expr, recv string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if be, ok := n.(*ast.BinaryExpr); ok &&
			(be.Op == token.EQL || be.Op == token.NEQ) && isRecvNilComparison(be, recv) {
			found = true
		}
		return !found
	})
	return found
}

// isRecvNilComparison reports whether the binary expression compares the
// named receiver against nil (either operand order).
func isRecvNilComparison(be *ast.BinaryExpr, recv string) bool {
	return (isIdent(be.X, recv) && isIdent(be.Y, "nil")) ||
		(isIdent(be.X, "nil") && isIdent(be.Y, recv))
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// receiverTypeName extracts T from *T (handling generics' *T[P]).
func receiverTypeName(t ast.Expr) string {
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch e := t.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return receiverTypeName(e.X)
	case *ast.IndexListExpr:
		return receiverTypeName(e.X)
	}
	return "?"
}
