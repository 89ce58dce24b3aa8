package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goroutineSharedWrite flags writes to shared state inside goroutine bodies.
// Simulation code is single-threaded by design: every simulated process is
// a callback state machine on its engine's goroutine, and model code starts
// no goroutine. The places real concurrency is coordinated are
// internal/runner (exempt by config) and the sharded engine's barrier
// protocol, which hands state to workers explicitly. The rule covers both
// launch forms:
//
//   - `go func() {...}`: an assignment or inc/dec whose target is rooted at
//     a variable captured from the enclosing scope is flagged.
//   - `go f(...)` / `go recv.m(...)` resolving to a same-package function or
//     method declaration: a write rooted at a package-level variable is
//     flagged. Writes through the receiver or parameters are the explicit
//     hand-off idiom (the launcher chose what to share — e.g. the sharded
//     engine's per-shard workers own their shard through the receiver and
//     communicate over channels) and stay exempt.
//
// Either way the flagged write is a data race the -race gate would only
// catch nondeterministically; this rule catches it at lint time.
type goroutineSharedWrite struct{}

func (goroutineSharedWrite) Name() string { return "goroutine-shared-write" }
func (goroutineSharedWrite) Doc() string {
	return "flag writes to captured or package-level variables inside goroutines"
}

func (goroutineSharedWrite) Check(c *Checker, pkg *Package) {
	// Index the package's function and method declarations by their object so
	// a named `go` launch can be resolved to the body it runs.
	decls := map[types.Object]*ast.FuncDecl{}
	eachFile(pkg, func(f *ast.File) {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj := pkg.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	})
	// A declaration launched from several sites is still one body: check once.
	checked := map[*ast.FuncDecl]bool{}
	eachFile(pkg, func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if fl, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				checkGoWrites(c, pkg.Info, fl.Pos(), fl.End(), fl.Body,
					"go closure writes captured %q: shared-state race (communicate over channels or confine to internal/runner)")
				return true
			}
			fd := launchedDecl(pkg.Info, decls, gs.Call.Fun)
			if fd == nil || fd.Body == nil || checked[fd] {
				return true
			}
			checked[fd] = true
			checkGoWrites(c, pkg.Info, fd.Pos(), fd.End(), fd.Body,
				"go-launched %q writes package-level %q: shared-state race (hand state in via the receiver or parameters, or communicate over channels)",
				fd.Name.Name)
			return true
		})
	})
}

// launchedDecl resolves the callee of a named `go` launch to its declaration
// in the same package: a plain identifier, or a selector whose method (or
// package-qualified function) is declared here. Cross-package callees and
// function-valued expressions return nil.
func launchedDecl(info *types.Info, decls map[types.Object]*ast.FuncDecl, fun ast.Expr) *ast.FuncDecl {
	switch x := fun.(type) {
	case *ast.Ident:
		return decls[info.Uses[x]]
	case *ast.SelectorExpr:
		return decls[info.Uses[x.Sel]]
	case *ast.ParenExpr:
		return launchedDecl(info, decls, x.X)
	}
	return nil
}

// checkGoWrites reports assignments and inc/dec statements anywhere inside
// the goroutine body whose target is rooted at a variable declared outside
// the [lo, hi) extent. For a closure the extent is the literal, so captured
// variables are outside it; for a declaration it spans receiver, parameters
// and locals, leaving exactly the package-level variables outside. Extra
// format arguments (the declaration name) precede the offending identifier.
func checkGoWrites(c *Checker, info *types.Info, lo, hi token.Pos, body *ast.BlockStmt, format string, prefixArgs ...any) {
	report := func(target ast.Expr) {
		id := rootIdent(target)
		if id == nil || id.Name == "_" {
			return
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok {
			return // declared in this statement, a field name, or unresolved
		}
		if obj.Pos() >= lo && obj.Pos() < hi {
			return // declared inside the goroutine body (params, receiver, locals)
		}
		if _, isChan := obj.Type().Underlying().(*types.Chan); isChan && target == ast.Expr(id) {
			return // reassigning a shared channel variable is out of scope
		}
		c.Reportf(target.Pos(), format, append(append([]any{}, prefixArgs...), id.Name)...)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				report(lhs)
			}
		case *ast.IncDecStmt:
			report(st.X)
		}
		return true
	})
}
