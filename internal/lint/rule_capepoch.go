package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// capepochGuard flags capacity-derived state reused after the capacity
// epoch may have been bumped. Locals assigned from a derived call
// (Link.Capacity, a cached PathCap value — configured via
// the "derived" option plus summary propagation) become stale the moment a
// statement can reach a bump root (Network.SetCapacity, again propagated
// through callees); any later read of a stale local is a finding until the
// local is recomputed. Reads inside the bumping statement itself are fine —
// that is the read-then-reconfigure idiom.
//
// Options:
//
//	bump    — comma-separated funcKeys that invalidate capacity state
//	derived — comma-separated funcKeys whose results are capacity-derived
type capepochGuard struct{}

func (capepochGuard) Name() string { return "capepoch-guard" }
func (capepochGuard) Doc() string {
	return "capacity-derived state must be recomputed after a capacity-epoch bump"
}

func (capepochGuard) Check(c *Checker, pkg *Package) {
	a := c.analysis
	if a == nil {
		return
	}
	for _, n := range a.graph.nodes {
		if n.pkg != pkg {
			continue
		}
		e := &epochTracker{
			c: c, a: a, n: n, info: pkg.Info,
			state:    map[types.Object]epochState{},
			origin:   map[types.Object]token.Pos{},
			reported: map[token.Pos]bool{},
		}
		if body := n.body(); body != nil {
			e.walkStmts(body.List)
		}
	}
}

type epochState int

const (
	epochFresh epochState = iota + 1
	epochStale
)

// epochTracker is the path-insensitive staleness walk of one function body.
type epochTracker struct {
	c        *Checker
	a        *analysis
	n        *funcNode
	info     *types.Info
	state    map[types.Object]epochState
	origin   map[types.Object]token.Pos
	reported map[token.Pos]bool
}

func (e *epochTracker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		e.walkStmt(s)
	}
}

func (e *epochTracker) walkStmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.IfStmt:
		if x.Init != nil {
			e.walkStmt(x.Init)
		}
		e.visitStmtExprs(x.Cond)
		branches := [][]ast.Stmt{x.Body.List}
		if x.Else != nil {
			branches = append(branches, []ast.Stmt{x.Else})
		}
		e.walkBranches(branches)
	case *ast.SwitchStmt:
		if x.Init != nil {
			e.walkStmt(x.Init)
		}
		if x.Tag != nil {
			e.visitStmtExprs(x.Tag)
		}
		e.walkClauses(x.Body)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			e.walkStmt(x.Init)
		}
		e.walkClauses(x.Body)
	case *ast.SelectStmt:
		e.walkClauses(x.Body)
	case *ast.ForStmt:
		if x.Init != nil {
			e.walkStmt(x.Init)
		}
		if x.Cond != nil {
			e.visitStmtExprs(x.Cond)
		}
		// Twice: a bump late in iteration k taints uses early in k+1. The
		// reported set dedups the double visit.
		for i := 0; i < 2; i++ {
			e.walkStmts(x.Body.List)
			if x.Post != nil {
				e.walkStmt(x.Post)
			}
		}
	case *ast.RangeStmt:
		e.visitStmtExprs(x.X)
		for i := 0; i < 2; i++ {
			e.walkStmts(x.Body.List)
		}
	case *ast.BlockStmt:
		e.walkStmts(x.List)
	case *ast.LabeledStmt:
		e.walkStmt(x.Stmt)
	case *ast.AssignStmt:
		e.walkAssign(x)
	default:
		e.visitLeafStmt(s)
	}
}

func (e *epochTracker) walkClauses(body *ast.BlockStmt) {
	var branches [][]ast.Stmt
	for _, cl := range body.List {
		switch cc := cl.(type) {
		case *ast.CaseClause:
			for _, ex := range cc.List {
				e.visitStmtExprs(ex)
			}
			branches = append(branches, cc.Body)
		case *ast.CommClause:
			if cc.Comm != nil {
				e.walkStmt(cc.Comm)
			}
			branches = append(branches, cc.Body)
		}
	}
	e.walkBranches(branches)
}

// walkBranches joins clones pessimistically: stale in any branch is stale
// after the join, fresh only if no branch left it stale.
func (e *epochTracker) walkBranches(branches [][]ast.Stmt) {
	parent := e.state
	parentOrigin := e.origin
	merged := cloneEpoch(parent)
	mergedOrigin := clonePos(parentOrigin)
	for _, b := range branches {
		e.state = cloneEpoch(parent)
		e.origin = clonePos(parentOrigin)
		e.walkStmts(b)
		for obj, st := range e.state {
			if st == epochStale || merged[obj] == 0 {
				if merged[obj] != epochStale {
					merged[obj] = st
				}
			}
			if _, ok := mergedOrigin[obj]; !ok {
				mergedOrigin[obj] = e.origin[obj]
			}
		}
	}
	e.state = merged
	e.origin = mergedOrigin
}

func cloneEpoch(m map[types.Object]epochState) map[types.Object]epochState {
	out := make(map[types.Object]epochState, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func clonePos(m map[types.Object]token.Pos) map[types.Object]token.Pos {
	out := make(map[types.Object]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// walkAssign refreshes or forgets assigned locals and checks RHS uses.
func (e *epochTracker) walkAssign(as *ast.AssignStmt) {
	bumps := e.stmtBumps(as)
	for _, rhs := range as.Rhs {
		if !bumps {
			e.checkUses(rhs)
		}
	}
	if bumps {
		e.markAllStale()
	}
	if (as.Tok != token.DEFINE && as.Tok != token.ASSIGN) || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := objectOf(e.info, id)
		if obj == nil {
			continue
		}
		if call, isCall := unparen(as.Rhs[i]).(*ast.CallExpr); isCall && e.a.callDerived(staticCallee(e.info, call)) {
			e.state[obj] = epochFresh
			e.origin[obj] = as.Rhs[i].Pos()
			continue
		}
		delete(e.state, obj)
		delete(e.origin, obj)
	}
}

// visitLeafStmt handles statements with no nested statement structure.
func (e *epochTracker) visitLeafStmt(s ast.Stmt) {
	bumps := e.stmtBumps(s)
	if !bumps {
		ast.Inspect(s, func(node ast.Node) bool {
			if lit, ok := node.(*ast.FuncLit); ok && lit != e.n.lit {
				return false
			}
			if ex, ok := node.(ast.Expr); ok {
				e.checkIdent(ex)
			}
			return true
		})
	}
	if bumps {
		e.markAllStale()
	}
}

func (e *epochTracker) visitStmtExprs(ex ast.Expr) {
	if ex == nil {
		return
	}
	e.checkUses(ex)
	if e.exprBumps(ex) {
		e.markAllStale()
	}
}

// stmtBumps reports whether any call the statement executes can bump the
// capacity epoch (through any static call chain).
func (e *epochTracker) stmtBumps(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit != e.n.lit {
			return false
		}
		if call, ok := node.(*ast.CallExpr); ok {
			if e.a.callBumps(staticCallee(e.info, call)) {
				found = true
			}
		}
		return !found
	})
	return found
}

func (e *epochTracker) exprBumps(ex ast.Expr) bool {
	found := false
	ast.Inspect(ex, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit != e.n.lit {
			return false
		}
		if call, ok := node.(*ast.CallExpr); ok {
			if e.a.callBumps(staticCallee(e.info, call)) {
				found = true
			}
		}
		return !found
	})
	return found
}

func (e *epochTracker) markAllStale() {
	for obj, st := range e.state {
		if st == epochFresh {
			e.state[obj] = epochStale
		}
	}
}

// checkUses reports every read of a stale local inside the expression.
func (e *epochTracker) checkUses(ex ast.Expr) {
	ast.Inspect(ex, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit != e.n.lit {
			return false
		}
		if inner, ok := node.(ast.Expr); ok {
			e.checkIdent(inner)
		}
		return true
	})
}

func (e *epochTracker) checkIdent(ex ast.Expr) {
	id, ok := ex.(*ast.Ident)
	if !ok {
		return
	}
	obj := e.info.Uses[id]
	if obj == nil || e.state[obj] != epochStale {
		return
	}
	if e.reported[id.Pos()] {
		return
	}
	e.reported[id.Pos()] = true
	e.c.Reportf(id.Pos(), "%s was computed from link capacities before a capacity-epoch bump; recompute it (or read it through a PathCap) before reuse", id.Name)
}
