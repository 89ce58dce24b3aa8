package lint

import (
	"go/types"
	"strings"
)

// scratchEscape guards the simulator's object pools: types listed in the
// rule's "types" option (comma-separated local type names, e.g.
// handoffXfer) are recycled between uses, so a pointer to one must never
// cross the package's exported API — a caller holding a pooled object would
// observe it being reused. The rule flags exported functions or methods whose results mention
// a pooled type, exported fields of exported structs typed with one, and
// exported package-level variables holding one.
type scratchEscape struct{}

func (scratchEscape) Name() string { return "scratch-escape" }
func (scratchEscape) Doc() string {
	return "forbid pooled scratch types from escaping the package's exported API"
}

func (r scratchEscape) Check(c *Checker, pkg *Package) {
	pooled := map[*types.TypeName]bool{}
	for _, name := range strings.Split(c.Config().Option(r.Name(), "types"), ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok {
			pooled[tn] = true
		}
	}
	if len(pooled) == 0 {
		return
	}

	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch o := obj.(type) {
		case *types.Var:
			if mentionsPooled(o.Type(), pooled) {
				c.Reportf(o.Pos(), "exported variable %s holds pooled type: pooled objects must stay inside the package", name)
			}
		case *types.TypeName:
			switch u := o.Type().Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					f := u.Field(i)
					if f.Exported() && mentionsPooled(f.Type(), pooled) {
						c.Reportf(f.Pos(), "exported field %s.%s exposes pooled type", name, f.Name())
					}
				}
			case *types.Interface:
				// An exported interface whose method signatures mention a
				// pooled type forces every implementation to leak pooled
				// objects across the API.
				for i := 0; i < u.NumExplicitMethods(); i++ {
					m := u.ExplicitMethod(i)
					sig := m.Type().(*types.Signature)
					leaks := false
					for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
						for j := 0; j < tup.Len(); j++ {
							if mentionsPooled(tup.At(j).Type(), pooled) {
								leaks = true
							}
						}
					}
					if leaks {
						c.Reportf(m.Pos(), "exported interface method %s.%s mentions pooled type: implementations would leak pooled objects", name, m.Name())
					}
				}
			}
		case *types.Func:
			r.checkSignature(c, o, pooled)
		}
	}
	// Exported methods of exported types.
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				r.checkSignature(c, m, pooled)
			}
		}
	}
}

func (scratchEscape) checkSignature(c *Checker, fn *types.Func, pooled map[*types.TypeName]bool) {
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if mentionsPooled(res.At(i).Type(), pooled) {
			c.Reportf(fn.Pos(), "exported %s returns pooled type: callers would observe object reuse", fn.Name())
			return
		}
	}
}

// mentionsPooled reports whether the type expression structurally contains a
// pooled named type. Named types other than the pooled ones stop the walk:
// returning *Network whose unexported fields hold pooled objects is fine —
// the pool stays encapsulated.
func mentionsPooled(t types.Type, pooled map[*types.TypeName]bool) bool {
	switch u := t.(type) {
	case *types.Named:
		return pooled[u.Obj()]
	case *types.Pointer:
		return mentionsPooled(u.Elem(), pooled)
	case *types.Slice:
		return mentionsPooled(u.Elem(), pooled)
	case *types.Array:
		return mentionsPooled(u.Elem(), pooled)
	case *types.Map:
		return mentionsPooled(u.Key(), pooled) || mentionsPooled(u.Elem(), pooled)
	case *types.Chan:
		return mentionsPooled(u.Elem(), pooled)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if mentionsPooled(u.Field(i).Type(), pooled) {
				return true
			}
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				if mentionsPooled(tup.At(i).Type(), pooled) {
					return true
				}
			}
		}
	}
	return false
}
