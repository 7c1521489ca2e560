package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Deadapi enforces the no-dead-code contract (DESIGN.md §5j): the only
// code the module carries is code something runs. It reports
//
//   - every exported func, method, type, const or var (struct fields
//     excluded) declared in an internal/ package that no non-test code of
//     the loaded module references: internal/ is reachable only from this
//     module, so an exported name nothing reaches is dead, and one only a
//     test reaches belongs in that test's _test.go;
//   - every unexported function or method, in any package, that no
//     non-test code references.
//
// Uses count from every package the loader has type-checked (Loaded), not
// only the ones being analyzed, so `pdnlint ./internal/geom/...` sees the
// mesh package's calls into geom. A declaration's references to itself (a
// recursive call, a method's receiver type) do not count. A method counts
// as used when its receiver type, or a pointer to it, implements an
// interface the module mentions (its own, or a standard-library one such as
// types.Importer reached through a field or parameter type) or one the
// standard library consumes implicitly (error, fmt.Stringer, the errors.Is,
// As and Unwrap hooks).
var Deadapi = &Analyzer{
	Name: "deadapi",
	Doc:  "exported internal/ identifiers and unexported functions must be referenced by non-test code",
	Run:  runDeadapi,
}

func runDeadapi(p *Package) []RawFinding {
	live := p.moduleUses()
	internal := strings.HasPrefix(p.Path, internalPrefix)
	var out []RawFinding
	check := func(id *ast.Ident, kind string) {
		obj := p.Info.Defs[id]
		if obj == nil || id.Name == "_" || live[obj] {
			return
		}
		out = append(out, RawFinding{Pos: id.Pos(), Message: fmt.Sprintf(
			"%s %s is not referenced by non-test code in the module; delete it, or move it into the _test.go that uses it", kind, displayName(p, obj))})
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.Types.Name() == "main") {
					continue
				}
				if !d.Name.IsExported() || internal {
					kind := "func"
					if d.Recv != nil {
						kind = "method"
					}
					check(d.Name, kind)
				}
			case *ast.GenDecl:
				if !internal {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							check(s.Name, "type")
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								check(id, d.Tok.String())
							}
						}
					}
				}
			}
		}
	}
	return out
}

// displayName renders obj relative to its package: F, T, or (*T).M.
func displayName(p *Package, obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Name()
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return fn.Name()
	}
	return fmt.Sprintf("(%s).%s", types.TypeString(recv.Type(), types.RelativeTo(p.Types)), fn.Name())
}

// moduleUses returns the set of objects referenced by non-test code in any
// package the loader holds, plus every method that satisfies an interface
// (see Deadapi). It is computed once per loader state and shared by every
// analyzed package.
func (p *Package) moduleUses() map[types.Object]bool {
	l := p.loader
	if l != nil && l.uses != nil && l.usesOf == len(l.pkgs) {
		return l.uses
	}
	pkgs := p.Loaded()
	used := make(map[types.Object]bool)
	ifaces := implicitInterfaces()
	seen := make(map[types.Type]bool)
	var named []*types.Named
	for _, q := range pkgs {
		// count records the uses under n, except references to self.
		count := func(n ast.Node, self types.Object) {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := origin(q.Info.Uses[id]); obj != nil && obj != self {
						used[obj] = true
					}
				}
				return true
			})
		}
		for _, f := range q.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					// Not d.Recv: the receiver names the method's own type.
					self := q.Info.Defs[d.Name]
					count(d.Type, self)
					if d.Body != nil {
						count(d.Body, self)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var self types.Object
						if ts, ok := spec.(*ast.TypeSpec); ok {
							self = q.Info.Defs[ts.Name]
						}
						count(spec, self)
					}
				}
			}
		}
		for _, tv := range q.Info.Types {
			ifaces = mentionedInterfaces(tv.Type, ifaces, seen)
		}
		for _, obj := range q.Info.Uses {
			ifaces = mentionedInterfaces(obj.Type(), ifaces, seen)
		}
		for _, obj := range q.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	for _, n := range named {
		for _, recv := range []types.Type{n, types.NewPointer(n)} {
			ms := types.NewMethodSet(recv)
			if ms.Len() == 0 {
				continue
			}
			for _, it := range ifaces {
				if it.NumMethods() == 0 || !types.Implements(recv, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
						used[origin(sel.Obj())] = true
					}
				}
			}
		}
	}
	if l != nil {
		l.uses, l.usesOf = used, len(pkgs)
	}
	return used
}

// origin maps an instantiated generic function or method to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// mentionedInterfaces appends every non-empty interface reachable from t
// through pointers, containers and signatures (not struct fields: a field
// the module reads shows up as its own use).
func mentionedInterfaces(t types.Type, acc []*types.Interface, seen map[types.Type]bool) []*types.Interface {
	if t == nil || seen[t] {
		return acc
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			acc = append(acc, it)
		}
	case *types.Interface:
		if t.NumMethods() > 0 {
			acc = append(acc, t)
		}
	case *types.Pointer:
		acc = mentionedInterfaces(t.Elem(), acc, seen)
	case *types.Slice:
		acc = mentionedInterfaces(t.Elem(), acc, seen)
	case *types.Array:
		acc = mentionedInterfaces(t.Elem(), acc, seen)
	case *types.Chan:
		acc = mentionedInterfaces(t.Elem(), acc, seen)
	case *types.Map:
		acc = mentionedInterfaces(t.Key(), acc, seen)
		acc = mentionedInterfaces(t.Elem(), acc, seen)
	case *types.Signature:
		acc = mentionedInterfaces(t.Params(), acc, seen)
		acc = mentionedInterfaces(t.Results(), acc, seen)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			acc = mentionedInterfaces(t.At(i).Type(), acc, seen)
		}
	}
	return acc
}

// implicitInterfaces are error and the method sets the standard library
// calls through a dynamic type check rather than a declared parameter type:
// fmt's Stringer and the errors.Is/As/Unwrap hooks. A json or text
// marshaler would join them once the module declares one.
func implicitInterfaces() []*types.Interface {
	errT := types.Universe.Lookup("error").Type()
	anyT := types.Universe.Lookup("any").Type()
	boolT := types.Typ[types.Bool]
	one := func(name string, params, results []types.Type) *types.Interface {
		tuple := func(ts []types.Type) *types.Tuple {
			vars := make([]*types.Var, len(ts))
			for i, t := range ts {
				vars[i] = types.NewParam(token.NoPos, nil, "", t)
			}
			return types.NewTuple(vars...)
		}
		sig := types.NewSignatureType(nil, nil, nil, tuple(params), tuple(results), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	return []*types.Interface{
		errT.Underlying().(*types.Interface),
		one("String", nil, []types.Type{types.Typ[types.String]}),
		one("Unwrap", nil, []types.Type{errT}),
		one("Unwrap", nil, []types.Type{types.NewSlice(errT)}),
		one("Is", []types.Type{errT}, []types.Type{boolT}),
		one("As", []types.Type{anyT}, []types.Type{boolT}),
	}
}
