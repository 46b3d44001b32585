package framework

// The flow substrate. PR 5's analyzers were syntactic: they matched
// shapes (a map range whose body appends, a time.Now identifier) and
// the one that needed data flow — obsnil's guard tracking — carried
// its own ad-hoc walker. The serving-layer invariants are different in
// kind: "thread the one snapshot", "derive the cache epoch from the
// snapshot you rendered", "every goroutine has a termination edge" are
// statements about where values come from and where control can go,
// not about what a line looks like. This file is the shared substrate
// those analyzers build on:
//
//   - CFG: an intraprocedural control-flow graph over the AST —
//     basic blocks, successor edges, reachability. Deliberately
//     coarse (no SSA, no dominator tree): the analyzers ask "can
//     control reach a cache.advance after this Apply", which plain
//     reachability answers.
//   - Origins: flow-insensitive def-use chains — for an expression,
//     the set of root nodes (calls, parameters, field reads,
//     literals) its value can derive from, chased through local
//     assignments to a fixed point. This is the "which Current()
//     load does this epoch stamp come from" machinery.
//   - Nil-guard facts (Terminates, NonNilFacts, NilTestedFacts):
//     the short-circuit/early-exit tracking obsnil half-implemented
//     privately in PR 5, consolidated here so flow-aware passes
//     share one definition of "this path proved x non-nil".
//   - Hotpath markers: //cfslint:hotpath attaches an allocation
//     budget to a function declaration; HotpathFuncs finds them.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ---------------------------------------------------------------------
// Control-flow graph
// ---------------------------------------------------------------------

// Block is one basic block: a maximal run of statements with a single
// entry and exits only at the end. Control statements (if, for,
// switch, select) terminate their block; their condition/tag
// expressions belong to the block they end.
type Block struct {
	Index int
	Stmts []ast.Stmt
	Succs []*Block
}

// CFG is the control-flow graph of one function body. Entry is the
// block containing the first statement; Exit is a synthetic empty
// block every return (and the fall-off-the-end path) feeds.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block

	// stmtBlock maps each statement (at any nesting depth) to the
	// block it starts in, for node-level reachability queries.
	stmtBlock map[ast.Stmt]*Block
	// stmtIndex orders statements within their block.
	stmtIndex map[ast.Stmt]int
}

// BuildCFG constructs the control-flow graph of body. Nested function
// literals are opaque: their statements belong to their own (unbuilt)
// graph, not this one — a `go func() { ... }` contributes one GoStmt
// node, and the analyzer builds a separate CFG for the literal if it
// cares about the goroutine's interior.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg: &CFG{
			stmtBlock: make(map[ast.Stmt]*Block),
			stmtIndex: make(map[ast.Stmt]int),
		},
	}
	b.cfg.Exit = b.newBlock() // Index 0, filled with no stmts
	b.cfg.Entry = b.newBlock()
	end := b.stmtList(body.List, b.cfg.Entry)
	if end != nil {
		end.Succs = append(end.Succs, b.cfg.Exit)
	}
	return b.cfg
}

// Reaches reports whether control can flow from node `from` to node
// `to`, where both are nodes somewhere inside the CFG's body. Two
// nodes in the same statement are ordered by position — an
// approximation of evaluation order that is exact for the
// straight-line expressions the analyzers compare.
func (c *CFG) Reaches(from, to ast.Node) bool {
	fb, fi, ok := c.locate(from)
	if !ok {
		return false
	}
	tb, ti, ok := c.locate(to)
	if !ok {
		return false
	}
	if fb == tb {
		if fi < ti {
			return true
		}
		if fi == ti {
			if from == to {
				// A node reaches itself only around a cycle.
				return c.reachesBlock(fb.Succs, tb)
			}
			return from.Pos() <= to.Pos()
		}
		// Later statement in the same block: only reachable around a
		// loop, i.e. when the block reaches itself.
		return c.reachesBlock(fb.Succs, tb)
	}
	return c.reachesBlock(fb.Succs, tb)
}

func (c *CFG) reachesBlock(start []*Block, target *Block) bool {
	seen := make([]bool, len(c.Blocks))
	stack := append([]*Block(nil), start...)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == target {
			return true
		}
		if seen[b.Index] {
			continue
		}
		seen[b.Index] = true
		stack = append(stack, b.Succs...)
	}
	return false
}

// locate finds the innermost tracked statement containing n and
// returns its block and in-block index.
func (c *CFG) locate(n ast.Node) (*Block, int, bool) {
	var best ast.Stmt
	var bestBlk *Block
	bestIdx := 0
	for _, blk := range c.Blocks {
		for i, s := range blk.Stmts {
			if s.Pos() <= n.Pos() && n.End() <= s.End() {
				if best == nil || (best.Pos() <= s.Pos() && s.End() <= best.End()) {
					best, bestBlk, bestIdx = s, blk, i
				}
			}
		}
	}
	if best == nil {
		return nil, 0, false
	}
	return bestBlk, bestIdx, true
}

type cfgBuilder struct {
	cfg *CFG
	// loop targets for break/continue, innermost last.
	breaks    []*Block
	continues []*Block
	// labeled loop targets.
	labelBreak    map[string]*Block
	labelContinue map[string]*Block
	// pendingLabel carries a LabeledStmt's name down to the loop it
	// labels, consumed by the For/Range cases.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) add(blk *Block, s ast.Stmt) {
	b.cfg.stmtBlock[s] = blk
	b.cfg.stmtIndex[s] = len(blk.Stmts)
	blk.Stmts = append(blk.Stmts, s)
}

// stmtList threads the statements through cur, returning the live
// block after the last one (nil when control cannot fall through).
func (b *cfgBuilder) stmtList(list []ast.Stmt, cur *Block) *Block {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after return/break: park it in a fresh
			// disconnected block so locate() still finds its nodes.
			cur = b.newBlock()
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

func (b *cfgBuilder) stmt(s ast.Stmt, cur *Block) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.add(cur, s)
		return b.stmtList(s.List, cur)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(cur, s.Init)
		}
		b.add(cur, s)
		thenB := b.newBlock()
		cur.Succs = append(cur.Succs, thenB)
		after := b.newBlock()
		if end := b.stmtList(s.Body.List, thenB); end != nil {
			end.Succs = append(end.Succs, after)
		}
		if s.Else != nil {
			elseB := b.newBlock()
			cur.Succs = append(cur.Succs, elseB)
			if end := b.stmt(s.Else, elseB); end != nil {
				end.Succs = append(end.Succs, after)
			}
		} else {
			cur.Succs = append(cur.Succs, after)
		}
		return after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(cur, s.Init)
		}
		head := b.newBlock()
		cur.Succs = append(cur.Succs, head)
		b.add(head, s)
		after := b.newBlock()
		if s.Cond != nil {
			head.Succs = append(head.Succs, after)
		}
		post := head
		if s.Post != nil {
			post = b.newBlock()
			b.add(post, s.Post)
			post.Succs = append(post.Succs, head)
		}
		bodyB := b.newBlock()
		head.Succs = append(head.Succs, bodyB)
		b.pushLoop(after, post, label)
		if end := b.stmtList(s.Body.List, bodyB); end != nil {
			end.Succs = append(end.Succs, post)
		}
		b.popLoop(label)
		return after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		cur.Succs = append(cur.Succs, head)
		b.add(head, s)
		after := b.newBlock()
		head.Succs = append(head.Succs, after) // ranges always terminate the head
		bodyB := b.newBlock()
		head.Succs = append(head.Succs, bodyB)
		b.pushLoop(after, head, label)
		if end := b.stmtList(s.Body.List, bodyB); end != nil {
			end.Succs = append(end.Succs, head)
		}
		b.popLoop(label)
		return after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init ast.Stmt
		var body *ast.BlockStmt
		if sw, ok := s.(*ast.SwitchStmt); ok {
			init, body = sw.Init, sw.Body
		} else {
			ts := s.(*ast.TypeSwitchStmt)
			init, body = ts.Init, ts.Body
		}
		if init != nil {
			b.add(cur, init)
		}
		b.add(cur, s)
		after := b.newBlock()
		b.breaks = append(b.breaks, after)
		hasDefault := false
		for _, cc := range body.List {
			clause := cc.(*ast.CaseClause)
			if clause.List == nil {
				hasDefault = true
			}
			cb := b.newBlock()
			cur.Succs = append(cur.Succs, cb)
			if end := b.stmtList(clause.Body, cb); end != nil {
				end.Succs = append(end.Succs, after)
			}
		}
		if !hasDefault {
			cur.Succs = append(cur.Succs, after)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		return after

	case *ast.SelectStmt:
		b.add(cur, s)
		after := b.newBlock()
		b.breaks = append(b.breaks, after)
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			cb := b.newBlock()
			cur.Succs = append(cur.Succs, cb)
			if clause.Comm != nil {
				b.add(cb, clause.Comm)
			}
			if end := b.stmtList(clause.Body, cb); end != nil {
				end.Succs = append(end.Succs, after)
			}
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		return after

	case *ast.ReturnStmt:
		b.add(cur, s)
		cur.Succs = append(cur.Succs, b.cfg.Exit)
		return nil

	case *ast.BranchStmt:
		b.add(cur, s)
		switch s.Tok {
		case token.BREAK:
			if t := b.branchTarget(s.Label, b.breaks, b.labelBreak); t != nil {
				cur.Succs = append(cur.Succs, t)
			}
			return nil
		case token.CONTINUE:
			if t := b.branchTarget(s.Label, b.continues, b.labelContinue); t != nil {
				cur.Succs = append(cur.Succs, t)
			}
			return nil
		case token.GOTO:
			// Rare in this codebase; treat as an opaque exit so paths
			// through it are never claimed reachable.
			return nil
		}
		return cur

	case *ast.LabeledStmt:
		// Hand the label down so the loop it names registers
		// break/continue targets under it.
		b.add(cur, s)
		b.pendingLabel = s.Label.Name
		out := b.stmt(s.Stmt, cur)
		b.pendingLabel = ""
		return out

	default:
		// Plain statements: assign, expr, send, defer, go, decl, incdec,
		// empty. Nested function literals stay opaque.
		b.add(cur, s)
		return cur
	}
}

func (b *cfgBuilder) pushLoop(brk, cont *Block, label string) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	if label != "" {
		if b.labelBreak == nil {
			b.labelBreak = make(map[string]*Block)
			b.labelContinue = make(map[string]*Block)
		}
		b.labelBreak[label] = brk
		b.labelContinue[label] = cont
	}
}

func (b *cfgBuilder) popLoop(label string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	if label != "" {
		delete(b.labelBreak, label)
		delete(b.labelContinue, label)
	}
}

func (b *cfgBuilder) branchTarget(label *ast.Ident, stack []*Block, labeled map[string]*Block) *Block {
	if label != nil {
		return labeled[label.Name]
	}
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

// takeLabel consumes the label a LabeledStmt wrapper handed down for
// the loop about to be built; "" when the loop is unlabeled.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// ---------------------------------------------------------------------
// Def-use origins
// ---------------------------------------------------------------------

// Origins answers "where can this expression's value come from": the
// transitive closure of local assignments, ending at root nodes — call
// expressions, function parameters, field reads, receives, literals.
// It is flow-insensitive (every assignment to a variable contributes,
// regardless of order), which over-approximates safely: an analyzer
// that requires "derived from Epoch()" accepts a value that might be,
// and one that forbids "derived from a second Current()" flags a value
// that might be.
type Origins struct {
	info *types.Info
	defs map[types.Object][]ast.Expr
	// params holds the function's parameters and receivers, so
	// analyzers can tell an incoming value from a never-assigned local.
	params map[types.Object]bool
}

// NewOrigins collects the assignment graph of fn (a FuncDecl or
// FuncLit), including nested literals — a closure assigning to a
// captured variable contributes to that variable's origin set.
func NewOrigins(info *types.Info, fn ast.Node) *Origins {
	o := &Origins{
		info:   info,
		defs:   make(map[types.Object][]ast.Expr),
		params: make(map[types.Object]bool),
	}
	var recordParams func(ft *ast.FuncType, recv *ast.FieldList)
	recordParams = func(ft *ast.FuncType, recv *ast.FieldList) {
		lists := []*ast.FieldList{ft.Params, ft.Results, recv}
		for _, fl := range lists {
			if fl == nil {
				continue
			}
			for _, field := range fl.List {
				for _, name := range field.Names {
					if obj := info.Defs[name]; obj != nil {
						o.params[obj] = true
					}
				}
			}
		}
	}
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		recordParams(fn.Type, fn.Recv)
	case *ast.FuncLit:
		recordParams(fn.Type, nil)
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			recordParams(n.Type, nil)
		case *ast.AssignStmt:
			o.recordAssign(n)
		case *ast.GenDecl:
			if n.Tok == token.VAR {
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						obj := o.info.Defs[name]
						if obj == nil {
							continue
						}
						switch {
						case len(vs.Values) == len(vs.Names):
							o.defs[obj] = append(o.defs[obj], vs.Values[i])
						case len(vs.Values) == 1:
							o.defs[obj] = append(o.defs[obj], vs.Values[0])
						}
					}
				}
			}
		case *ast.RangeStmt:
			for _, lhs := range []ast.Expr{n.Key, n.Value} {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					if obj := o.objOf(id); obj != nil {
						o.defs[obj] = append(o.defs[obj], n.X)
					}
				}
			}
		}
		return true
	})
	return o
}

func (o *Origins) recordAssign(s *ast.AssignStmt) {
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := o.objOf(id)
		if obj == nil {
			continue
		}
		switch {
		case len(s.Rhs) == len(s.Lhs):
			o.defs[obj] = append(o.defs[obj], s.Rhs[i])
		case len(s.Rhs) == 1:
			// Multi-value: `a, b := f()` — both derive from the call.
			o.defs[obj] = append(o.defs[obj], s.Rhs[0])
		}
	}
}

func (o *Origins) objOf(id *ast.Ident) types.Object {
	if obj := o.info.Defs[id]; obj != nil {
		return obj
	}
	return o.info.Uses[id]
}

// IsParam reports whether obj is one of the function's parameters or
// receivers — an incoming value whose provenance belongs to callers.
func (o *Origins) IsParam(obj types.Object) bool { return o.params[obj] }

// Roots resolves e to its origin roots. A root is a node the local
// assignment graph cannot see through: a call, a parameter or
// never-assigned identifier, a selector (field read), an index
// expression, a receive, a composite or basic literal. Composite
// literal elements are traversed, so a value wrapped in a struct still
// carries its origins.
func (o *Origins) Roots(e ast.Expr) []ast.Node {
	var roots []ast.Node
	seen := make(map[types.Object]bool)
	var visit func(e ast.Expr)
	visit = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			visit(e.X)
		case *ast.StarExpr:
			visit(e.X)
		case *ast.TypeAssertExpr:
			visit(e.X)
		case *ast.BinaryExpr:
			visit(e.X)
			visit(e.Y)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				visit(e.X)
				return
			}
			// Receives (<-ch) and arithmetic negation are opaque roots.
			roots = append(roots, e)
		case *ast.CompositeLit:
			roots = append(roots, e)
			for _, elt := range e.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					visit(kv.Value)
				} else {
					visit(elt)
				}
			}
		case *ast.Ident:
			obj := o.objOf(e)
			if obj == nil || seen[obj] {
				return
			}
			seen[obj] = true
			defs := o.defs[obj]
			if len(defs) == 0 || o.params[obj] {
				roots = append(roots, e)
			}
			for _, d := range defs {
				visit(d)
			}
		default:
			// CallExpr, SelectorExpr, IndexExpr, BasicLit, FuncLit, ...
			roots = append(roots, e)
		}
	}
	visit(e)
	return roots
}

// RootCalls filters Roots down to the call expressions e derives from.
func (o *Origins) RootCalls(e ast.Expr) []*ast.CallExpr {
	var calls []*ast.CallExpr
	for _, r := range o.Roots(e) {
		if c, ok := r.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
	}
	return calls
}

// DerivedFromCall reports whether any of e's root calls satisfies pred.
func (o *Origins) DerivedFromCall(e ast.Expr, pred func(*ast.CallExpr) bool) bool {
	for _, c := range o.RootCalls(e) {
		if pred(c) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Method-call matching
// ---------------------------------------------------------------------

// MethodCall reports the receiver type name and method name of call
// when it is a method invocation through a value (x.M(...)); ok is
// false for package-level functions, builtins and conversions. The
// receiver type is the named type under any pointer.
func MethodCall(info *types.Info, call *ast.CallExpr) (recvType, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	s, found := info.Selections[sel]
	if !found || s.Kind() != types.MethodVal {
		return "", "", false
	}
	t := s.Recv()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	return named.Obj().Name(), sel.Sel.Name, true
}

// IsMethodCall reports whether call invokes method `method` on a value
// of named type `recvType` (pointer or value receiver).
func IsMethodCall(info *types.Info, call *ast.CallExpr, recvType, method string) bool {
	r, m, ok := MethodCall(info, call)
	return ok && r == recvType && m == method
}

// NamedTypeName returns the name of the named type under any pointer,
// or "" for unnamed types.
func NamedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// ---------------------------------------------------------------------
// Nil-guard facts (consolidated from obsnil's PR 5 walker)
// ---------------------------------------------------------------------

// Terminates reports whether a guard body unconditionally leaves the
// enclosing scope: return, break/continue/goto, or a panic call.
func Terminates(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// IsNilExpr reports whether e is the predeclared nil identifier.
func IsNilExpr(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// NonNilFacts extracts expressions proven non-nil when cond is true:
// `x != nil` conjuncts across &&, rendered via types.ExprString.
func NonNilFacts(cond ast.Expr) []string {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch bin.Op {
	case token.LAND:
		return append(NonNilFacts(bin.X), NonNilFacts(bin.Y)...)
	case token.NEQ:
		if IsNilExpr(bin.Y) {
			return []string{types.ExprString(bin.X)}
		}
		if IsNilExpr(bin.X) {
			return []string{types.ExprString(bin.Y)}
		}
	}
	return nil
}

// NilTestedFacts extracts expressions proven non-nil when cond is
// FALSE: `x == nil` disjuncts across ||, the early-exit-guard dual of
// NonNilFacts.
func NilTestedFacts(cond ast.Expr) []string {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch bin.Op {
	case token.LOR:
		return append(NilTestedFacts(bin.X), NilTestedFacts(bin.Y)...)
	case token.EQL:
		if IsNilExpr(bin.Y) {
			return []string{types.ExprString(bin.X)}
		}
		if IsNilExpr(bin.X) {
			return []string{types.ExprString(bin.Y)}
		}
	}
	return nil
}

// DirectChildren returns n's immediate AST children, for walkers that
// must recurse manually to thread path-sensitive state.
func DirectChildren(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if first {
			first = false
			return true
		}
		if m != nil {
			out = append(out, m)
		}
		return false
	})
	return out
}

// ---------------------------------------------------------------------
// Hotpath markers
// ---------------------------------------------------------------------

// HotpathFuncs returns every function declaration marked with a
// //cfslint:hotpath directive — in its doc comment or on the line
// directly above the declaration. The marker attaches the hotalloc
// allocation budget to exactly the functions internal/serve's
// TestCachedRouteAllocs measures.
func HotpathFuncs(fset *token.FileSet, files []*ast.File) []*ast.FuncDecl {
	marked := make(map[string]map[int]bool) // file -> line of a hotpath directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text, fset.Position(c.Pos()))
				if !ok || d.verb != hotpathVerb {
					continue
				}
				lines := marked[d.pos.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					marked[d.pos.Filename] = lines
				}
				lines[d.pos.Line] = true
			}
		}
	}
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			pos := fset.Position(fn.Pos())
			lines := marked[pos.Filename]
			if lines == nil {
				continue
			}
			lo := pos.Line - 1
			if fn.Doc != nil {
				lo = fset.Position(fn.Doc.Pos()).Line
			}
			for line := lo; line <= pos.Line; line++ {
				if lines[line] {
					out = append(out, fn)
					break
				}
			}
		}
	}
	return out
}
