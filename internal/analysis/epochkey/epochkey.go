// Package epochkey guards the cache side of the epoch discipline. The
// serve cache is keyed by (epoch, request key) and invalidated
// wholesale at each snapshot swap; both halves only work when the
// epoch argument actually names the snapshot the payload was rendered
// from. Two rules on the PR 10 flow substrate:
//
//  1. Provenance: the epoch argument of epochCache.get / put / advance
//     must be data-flow-derived from a Mapping.Epoch() call or arrive
//     as an opaque incoming value (parameter, field read, element read,
//     receive — provenance then belongs to the caller).
//     A literal, arithmetic constant or unrelated call as the epoch
//     invents a version number no snapshot carries: the entry either
//     never hits or, worse, resurrects under a future real epoch.
//  2. Ordering: in the writer path, epochCache.advance must be
//     reachable from the System.Apply that published the snapshot —
//     invalidation follows the swap. An advance the CFG cannot reach
//     from the Apply (before it, or on a disjoint branch) either drops
//     entries the old epoch still serves or leaves stale entries
//     visible under the new one.
package epochkey

import (
	"go/ast"

	"facilitymap/internal/analysis/framework"
)

// epochMethods are the epochCache entry points whose first argument is
// the epoch the provenance rule checks.
var epochMethods = map[string]bool{"get": true, "put": true, "advance": true}

// Analyzer is the epochkey pass.
var Analyzer = &framework.Analyzer{
	Name: "epochkey",
	Doc: "epochCache get/put/advance must key on an epoch derived from " +
		"Mapping.Epoch() (or an opaque incoming value), and writer-side advance " +
		"must follow the System.Apply swap",
	Packages: []string{"internal/serve"},
	Run:      run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *framework.Pass, fn *ast.FuncDecl) {
	var cacheCalls []*ast.CallExpr // epochCache.{get,put,advance}
	var advances []*ast.CallExpr
	var applies []*ast.CallExpr
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, method, ok := framework.MethodCall(pass.TypesInfo, call); ok {
			switch {
			case recv == "epochCache" && epochMethods[method] && len(call.Args) > 0:
				cacheCalls = append(cacheCalls, call)
				if method == "advance" {
					advances = append(advances, call)
				}
			case recv == "System" && method == "Apply":
				applies = append(applies, call)
			}
		}
		return true
	})
	if len(cacheCalls) == 0 {
		return
	}
	origins := framework.NewOrigins(pass.TypesInfo, fn)
	for _, call := range cacheCalls {
		checkProvenance(pass, origins, call)
	}
	if len(applies) > 0 && len(advances) > 0 {
		cfg := framework.BuildCFG(fn.Body)
		for _, adv := range advances {
			reachable := false
			for _, app := range applies {
				if cfg.Reaches(app, adv) {
					reachable = true
					break
				}
			}
			if !reachable {
				pass.Reportf(adv.Pos(),
					"epochCache.advance is not reachable from the System.Apply swap in this function: invalidation must follow the publish")
			}
		}
	}
}

// checkProvenance validates the epoch argument (args[0]) of one cache
// call: at least one origin root must be a Mapping.Epoch() call or an
// opaque incoming value. All-literal (or otherwise fabricated)
// provenance is the bug.
func checkProvenance(pass *framework.Pass, origins *framework.Origins, call *ast.CallExpr) {
	epochArg := call.Args[0]
	for _, root := range origins.Roots(epochArg) {
		switch root := root.(type) {
		case *ast.CallExpr:
			if framework.IsMethodCall(pass.TypesInfo, root, "Mapping", "Epoch") {
				return // derived from a snapshot's own stamp
			}
		case *ast.Ident:
			// A parameter or never-assigned identifier: the caller owns
			// the provenance (e.g. put's epoch inside the cache itself).
			if obj := pass.TypesInfo.Uses[root]; obj != nil && origins.IsParam(obj) {
				return
			}
			if obj := pass.TypesInfo.Defs[root]; obj != nil && origins.IsParam(obj) {
				return
			}
		case *ast.SelectorExpr, *ast.IndexExpr:
			return // field/element read: provenance crosses the struct boundary
		case *ast.UnaryExpr:
			return // channel receive: provenance crosses the goroutine boundary
		}
	}
	sel := call.Fun.(*ast.SelectorExpr)
	pass.Reportf(epochArg.Pos(),
		"epoch argument of epochCache.%s does not derive from Mapping.Epoch(): a fabricated epoch either never hits or resurrects stale entries",
		sel.Sel.Name)
}
