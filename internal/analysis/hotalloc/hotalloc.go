// Package hotalloc turns internal/serve's exact allocation test
// (TestCachedRouteAllocs) from a "what regressed" number into a "which
// line" diagnostic. A function marked //cfslint:hotpath (the dispatch,
// epoch-cache and blob-table paths that test holds to zero or a few
// fixed allocations per cached request) rejects the constructs that put
// allocations back on the hot path:
//
//   - fmt.Sprintf / Sprint / Sprintln / Errorf — always allocate, and
//     box every operand on the way in;
//   - append whose target provably starts unsized (a capacity-less
//     make or a slice literal) — growth reallocates per append chain;
//   - interface boxing: a concrete value passed to an interface
//     parameter allocates unless escape analysis gets lucky;
//   - capturing closures: a func literal that references enclosing
//     locals allocates the closure (and often the captures) per call;
//   - map allocation (literal or make) — maps never come from the
//     stack.
//
// The marker lives in the directive machinery (framework.HotpathFuncs)
// so the directives validator rejects a hotpath comment that floats
// away from a function declaration, and so coverage stays exactly the
// set of functions the allocation test measures.
package hotalloc

import (
	"go/ast"
	"go/types"

	"facilitymap/internal/analysis/framework"
)

// fmtAllocFuncs are the fmt entry points banned outright on hot paths.
var fmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

// Analyzer is the hotalloc pass.
var Analyzer = &framework.Analyzer{
	Name: "hotalloc",
	Doc: "functions marked //cfslint:hotpath reject alloc-prone constructs: " +
		"fmt.Sprintf, unsized append growth, interface boxing, capturing " +
		"closures, map allocation",
	Packages: []string{"facilitymap", "internal/serve"},
	Run:      run,
}

func run(pass *framework.Pass) error {
	for _, fn := range framework.HotpathFuncs(pass.Fset, pass.Files) {
		if fn.Body == nil {
			continue
		}
		checkFunc(pass, fn)
	}
	return nil
}

func checkFunc(pass *framework.Pass, fn *ast.FuncDecl) {
	origins := framework.NewOrigins(pass.TypesInfo, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, origins, n)
		case *ast.FuncLit:
			checkClosure(pass, fn, n)
		case *ast.CompositeLit:
			if t := pass.TypesInfo.TypeOf(n); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Reportf(n.Pos(),
						"map literal on a hotpath: maps always heap-allocate; hoist it or index into a prebuilt table")
				}
			}
		}
		return true
	})
}

func checkCall(pass *framework.Pass, origins *framework.Origins, call *ast.CallExpr) {
	if id, ok := calleeIdent(call); ok {
		switch id {
		case "append":
			checkAppend(pass, origins, call)
			return
		case "make":
			if t := pass.TypesInfo.TypeOf(call); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Reportf(call.Pos(),
						"make(map) on a hotpath: maps always heap-allocate; hoist it or index into a prebuilt table")
				}
			}
			return
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "fmt" && fmtAllocFuncs[obj.Name()] {
			pass.Reportf(call.Pos(),
				"fmt.%s on a hotpath: it allocates the result and boxes every operand; use strconv append variants or prebuilt strings",
				obj.Name())
			return
		}
	}
	checkBoxing(pass, call)
}

// calleeIdent returns the name of a plain-identifier callee.
func calleeIdent(call *ast.CallExpr) (string, bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return "", false
	}
	return id.Name, true
}

// checkAppend flags an append whose target slice provably starts
// without capacity: every origin root is a make with no cap argument
// or a slice literal. Targets rooted in parameters, field reads or
// sized makes are the caller's business. Append chains (`b =
// append(b, ...)`) are seen through: an append root contributes its
// own target's roots.
func checkAppend(pass *framework.Pass, origins *framework.Origins, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	seen := make(map[ast.Node]bool)
	work := []ast.Node{}
	for _, r := range origins.Roots(call.Args[0]) {
		work = append(work, r)
	}
	unsized := false
	for len(work) > 0 {
		root := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[root] {
			continue
		}
		seen[root] = true
		switch root := root.(type) {
		case *ast.CallExpr:
			if id, ok := calleeIdent(root); ok {
				switch id {
				case "append":
					if len(root.Args) > 0 {
						for _, r := range origins.Roots(root.Args[0]) {
							work = append(work, r)
						}
					}
					continue
				case "make":
					if len(root.Args) < 3 {
						unsized = true
						continue
					}
					return // sized make: growth is provisioned
				}
			}
			return // opaque call: assume the callee sized it
		case *ast.CompositeLit:
			if t := pass.TypesInfo.TypeOf(root); t != nil {
				if _, ok := t.Underlying().(*types.Slice); ok {
					unsized = true
					continue
				}
			}
			return
		default:
			return // parameter, field read, index: caller-sized
		}
	}
	if unsized {
		pass.Reportf(call.Pos(),
			"append to a provably unsized slice on a hotpath: growth reallocates; make it with capacity up front")
	}
}

// checkBoxing flags concrete values passed to interface parameters.
func checkBoxing(pass *framework.Pass, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return // conversion or builtin
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			sl, ok := last.(*types.Slice)
			if !ok {
				return
			}
			pt = sl.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			return
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(),
			"interface boxing on a hotpath: %s is passed as %s and heap-allocates unless inlining saves it",
			at.String(), pt.String())
	}
}

// checkClosure flags a func literal that captures enclosing locals —
// the closure header (and usually the captures) allocate per call.
func checkClosure(pass *framework.Pass, fn *ast.FuncDecl, lit *ast.FuncLit) {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() {
			return true
		}
		// Captured: declared inside the enclosing function but outside
		// the literal.
		if v.Pos() >= fn.Pos() && v.Pos() < fn.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			captured = v.Name()
		}
		return true
	})
	if captured != "" {
		pass.Reportf(lit.Pos(),
			"capturing closure on a hotpath (captures %q): the closure and its captures heap-allocate per call; pass the value as a parameter or hoist the func", captured)
	}
}
