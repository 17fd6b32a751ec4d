package lint

import (
	"go/ast"
	"go/types"
)

// GlobalRand forbids the shared top-level math/rand generator in the
// packages whose outputs must be bit-identical across runs and worker
// counts. Every draw in estimator code must flow through an explicitly
// seeded *rand.Rand (the index-seeded per-sample streams of
// mc.Evaluator): a single rand.Float64() against the package-level
// source consumes shared state in scheduler order and silently breaks
// the worker-count-invariance property the determinism test suites lean
// on. What an explicit seed derives from — the wall clock, process
// identity — is Seedflow's to check.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc: "forbid top-level math/rand calls in deterministic estimator " +
		"packages; all randomness must flow through explicitly seeded " +
		"*rand.Rand streams",
	Applies: func(p *Package) bool {
		return pathIn(p, true, "mc", "gibbs", "baselines", "model", "sram", "spice", "surrogate")
	},
	Run: runGlobalRand,
}

// randConstructors are the math/rand package-level functions that do not
// touch the shared global source: they build explicitly seeded
// generators, which is exactly the sanctioned pattern.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runGlobalRand(p *Package, report Reporter) {
	// Call sites are checked first, then any remaining reference to a
	// global rand function — e.g. passing rand.Float64 as a callback —
	// is flagged too.
	inCall := make(map[*ast.SelectorExpr]bool)
	walkFiles(p, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, _ := pkgMember(p, sel, "math/rand", "math/rand/v2")
		fn, ok := obj.(*types.Func)
		if !ok {
			return true
		}
		inCall[sel] = true
		if !randConstructors[fn.Name()] {
			report(call.Pos(),
				"call to top-level %s.%s uses the shared global generator; draw from an explicitly seeded *rand.Rand instead",
				fn.Pkg().Name(), fn.Name())
		}
		return true
	})

	walkFiles(p, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || inCall[sel] {
			return true
		}
		obj, _ := pkgMember(p, sel, "math/rand", "math/rand/v2")
		if fn, ok := obj.(*types.Func); ok && !randConstructors[fn.Name()] {
			report(sel.Pos(),
				"reference to top-level %s.%s uses the shared global generator; pass a seeded *rand.Rand method instead",
				fn.Pkg().Name(), fn.Name())
		}
		return true
	})
}
