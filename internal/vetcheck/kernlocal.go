package vetcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// KernLocal enforces the replicated-kernel share-nothing rule (DESIGN.md
// §11): code executing on one kernel's event path must not read or write
// another kernel's mutable state except by sending messages through its own
// endpoint. Three access shapes break
// that promise and are flagged in every function reachable from a handler
// root (reach.go):
//
//  1. obtaining a peer endpoint — a `.Endpoint(n)` call or an
//     `.endpoints[i]` index. A kernel's sanctioned exit is Send/Call on the
//     endpoint it cached at construction; grabbing another kernel's
//     endpoint is touching its doorstep directly.
//  2. reaching through the cluster table — `.Kernels[i]`, `range .Kernels`,
//     or a `.Kernel(i)` call. Dereferencing a *Kernel that is not the
//     executing thread's own handle means one event touches two kernels'
//     state.
//  3. holding cross-kernel shared infrastructure — a struct field whose
//     type is one of the machine-wide singletons (sanitize.Checker,
//     trace.Collector, trace.Buffer, stats.Registry, msg.Fabric) that is
//     referenced from handler-reachable code. These are reported once, at
//     the field declaration: each must carry an allow-directive stating why
//     sharing it across kernels does not break the share-nothing rule.
//
// The engine runs one event at a time, so none of these is a host data
// race; each is a modeling shortcut — a kernel reading state that on real
// hardware would cost a message. The analyzer exists so every such site is
// either removed or carries a written justification a reviewer can audit.
type KernLocal struct{}

// Name implements Analyzer.
func (KernLocal) Name() string { return "kernlocal" }

// sharedInfraTypes are the machine-wide mutable singletons: one instance is
// shared by every kernel, so any handler-reachable field of these types is
// cross-kernel state by construction.
var sharedInfraTypes = map[string]bool{
	"sanitize.Checker": true,
	"trace.Collector":  true,
	"trace.Buffer":     true,
	"stats.Registry":   true,
	"msg.Fabric":       true,
}

// Check implements Analyzer.
func (KernLocal) Check(t *Tree) []Finding {
	ci := t.calls()
	var out []Finding
	for _, pkg := range t.Pkgs {
		if !kernelSide(pkg.Name) {
			continue
		}
		roots := handlerRoots(pkg, rootOpts{exported: true})
		bodies := ci.reachableBodies(pkg, roots)
		usedSelectors := make(map[string]bool)
		for _, rb := range bodies {
			out = append(out, checkLocality(t, rb.body, usedSelectors)...)
		}
		out = append(out, checkInfraFields(t, pkg, usedSelectors)...)
	}
	return out
}

// checkLocality flags foreign-handle accesses in one reachable body and
// records every selector name it sees (for the shared-infra field pass).
func checkLocality(t *Tree, body ast.Node, usedSelectors map[string]bool) []Finding {
	var out []Finding
	flag := func(pos token.Pos, msg string) {
		out = append(out, Finding{Pos: t.Fset.Position(pos), Rule: "kernlocal", Message: msg})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.SelectorExpr:
			usedSelectors[node.Sel.Name] = true
		case *ast.CallExpr:
			sel, ok := node.Fun.(*ast.SelectorExpr)
			if !ok {
				break
			}
			switch sel.Sel.Name {
			case "Endpoint":
				if len(node.Args) == 1 {
					flag(node.Pos(), "handler path obtains a kernel endpoint by node ID; "+
						"cross-kernel interaction must go through this kernel's own cached endpoint "+
						"(Send/Call), not a peer's — kernels share nothing")
				}
			case "Kernel":
				if len(node.Args) == 1 {
					flag(node.Pos(), "handler path dereferences the cluster table (.Kernel(n)); "+
						"touching a foreign *Kernel's state from an event handler breaks the "+
						"share-nothing rule — route the operation through msg instead")
				}
			}
		case *ast.IndexExpr:
			switch name := finalSelectorName(node.X); name {
			case "Kernels":
				flag(node.Pos(), "handler path indexes the cluster table (.Kernels[i]); "+
					"touching a foreign *Kernel's state from an event handler breaks the "+
					"share-nothing rule — route the operation through msg instead")
			case "endpoints":
				flag(node.Pos(), "handler path indexes the endpoint table directly; "+
					"only the fabric's delivery step may touch a peer's queue")
			}
		case *ast.RangeStmt:
			if finalSelectorName(node.X) == "Kernels" {
				flag(node.X.Pos(), "handler path ranges over the cluster table; "+
					"an event visiting every kernel's state serialises the whole machine — "+
					"use a multicast or per-kernel messages")
			}
		}
		return true
	})
	return out
}

// checkInfraFields reports each struct field of a shared-infrastructure
// type whose name is referenced from handler-reachable code, once, at the
// declaration.
func checkInfraFields(t *Tree, pkg *Package, usedSelectors map[string]bool) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		if file.Test {
			continue
		}
		for _, decl := range file.AST.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					infra := infraTypeOf(field.Type)
					if infra == "" {
						continue
					}
					for _, name := range field.Names {
						if !usedSelectors[name.Name] {
							continue
						}
						out = append(out, Finding{
							Pos:  t.Fset.Position(name.Pos()),
							Rule: "kernlocal",
							Message: fmt.Sprintf("field %s.%s holds cross-kernel shared infrastructure (%s) "+
								"reached from handler paths; annotate why sharing it across kernels keeps "+
								"the share-nothing rule, or make it per-kernel",
								ts.Name.Name, name.Name, infra),
						})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out
}

// infraTypeOf returns the qualified shared-infrastructure type a field type
// expression names (dereferencing pointers), or "".
func infraTypeOf(e ast.Expr) string {
	for {
		if st, ok := e.(*ast.StarExpr); ok {
			e = st.X
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	q := pkgID.Name + "." + sel.Sel.Name
	if sharedInfraTypes[q] {
		return q
	}
	return ""
}

// finalSelectorName returns the last selector component of an expression
// ("a.b.Kernels" -> "Kernels", "Kernels" -> "Kernels"), or "".
func finalSelectorName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}
