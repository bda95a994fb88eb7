package vetcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// UnboundedQ polices the overload contract (DESIGN.md §13): any queue a
// message handler can grow without a visible capacity bound is a memory
// bomb under overload — a peer sending faster than the receiver drains
// turns the queue into the heap until the process dies, which is exactly
// the failure mode the fabric's credit-based flow control exists to
// prevent. The analyzer walks every handler-reachable body (reach.go, with
// the exported surface as roots) of a kernel-side package and flags the
// queue-growth idiom
//
//	x.f = append(x.f, item)
//
// where the target is a *field* — persistent state that outlives the call,
// unlike a local slice being assembled and discarded. A flagged append is
// exempt when the code shows its bound or the author documents one:
//
//   - a len(x.f) or cap(x.f) test in an enclosing if/for condition, or in
//     an earlier if that returns/breaks (the early-reject guard idiom);
//   - a //popcornvet:bounded <reason> marker on the append line, on one of
//     the two lines above it (so it stacks with an allow-directive), or in
//     the enclosing function's doc comment;
//   - the usual //popcornvet:allow unboundedq <reason> waiver.
//
// A bare //popcornvet:bounded with no reason is itself reported: the
// marker is a claim about who bounds the producer, and a claim with no
// argument is indistinguishable from wishful thinking.
//
// Like its siblings the analysis is package-local and name-based: appends
// through locals, via helper calls it cannot see, or in packages that are
// not kernel-side are invisible. The overload soak measures the runtime
// side of the same contract (queue depth ≤ credits × links).
type UnboundedQ struct{}

// Name implements Analyzer.
func (UnboundedQ) Name() string { return "unboundedq" }

// boundedMarker documents a deliberate bound on queue growth. It is a
// claim about the code, not a suppression, so it does not share the allow
// directive's prefix.
const boundedMarker = "popcornvet:bounded"

// Check implements Analyzer.
func (UnboundedQ) Check(t *Tree) []Finding {
	ci := t.calls()
	var out []Finding
	for _, pkg := range t.Pkgs {
		if !kernelSide(pkg.Name) {
			continue
		}
		// One marker map per file, shared by every reachable body in it.
		marks := make(map[*File]map[int]bool)
		for _, file := range pkg.Files {
			if file.Test {
				continue
			}
			m, bare := boundedLines(t, file)
			marks[file] = m
			out = append(out, bare...)
		}
		roots := handlerRoots(pkg, rootOpts{exported: true})
		for _, rb := range ci.reachableBodies(pkg, roots) {
			file := fileContaining(pkg, rb.body.Pos())
			if file == nil {
				continue
			}
			out = append(out, checkUnboundedQ(t, rb, marks[file])...)
		}
	}
	return out
}

// boundedLines scans one file's comments for bounded markers, returning the
// set of lines that carry a justified marker plus findings for bare ones.
func boundedLines(t *Tree, file *File) (map[int]bool, []Finding) {
	lines := make(map[int]bool)
	var bare []Finding
	for _, cg := range file.AST.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, boundedMarker) {
				continue
			}
			reason := strings.TrimSpace(strings.TrimPrefix(text, boundedMarker))
			if reason == "" {
				bare = append(bare, Finding{
					Pos:  t.Fset.Position(c.Pos()),
					Rule: "unboundedq",
					Message: "//popcornvet:bounded with no reason: the marker claims something " +
						"bounds this queue's producer — name it (credits, protocol round, " +
						"fixed peer set) or remove the marker",
				})
				continue
			}
			lines[t.Fset.Position(c.Pos()).Line] = true
		}
	}
	return lines, bare
}

// fileContaining returns the package file whose span covers pos.
func fileContaining(pkg *Package, pos token.Pos) *File {
	for _, f := range pkg.Files {
		if f.AST.Pos() <= pos && pos <= f.AST.End() {
			return f
		}
	}
	return nil
}

// checkUnboundedQ walks one handler-reachable body and flags unguarded,
// unjustified field-append growth.
func checkUnboundedQ(t *Tree, rb reachableBody, marked map[int]bool) []Finding {
	var out []Finding
	ast.Inspect(rb.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) < 1 || len(as.Rhs) != 1 {
			return true
		}
		lhs, ok := as.Lhs[0].(*ast.SelectorExpr)
		if !ok {
			return true // locals assemble-and-return; only fields persist
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
			return true
		}
		target := exprString(lhs)
		if exprString(call.Args[0]) != target {
			return true // x.f = append(x.g, ...) is a copy, not self-growth
		}
		if lenGuarded(rb.body, as.Pos(), target) {
			return true
		}
		line := t.Fset.Position(as.Pos()).Line
		if marked[line] || marked[line-1] || marked[line-2] || boundedDoc(rb.fn) {
			return true
		}
		out = append(out, Finding{
			Pos:  t.Fset.Position(as.Pos()),
			Rule: "unboundedq",
			Message: fmt.Sprintf("%s grows by append on a handler-reachable path with no visible "+
				"capacity bound: under overload this queue is the heap — guard it with a "+
				"len/cap test, bound the producer, or justify with //popcornvet:bounded <reason>",
				target),
		})
		return true
	})
	return out
}

// boundedDoc reports whether the enclosing declaration's doc comment carries
// a justified bounded marker, covering every append in the function.
func boundedDoc(fd *ast.FuncDecl) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(text, boundedMarker) &&
			strings.TrimSpace(strings.TrimPrefix(text, boundedMarker)) != "" {
			return true
		}
	}
	return false
}

// lenGuarded reports whether the append at pos sits under a visible
// capacity test on its own target: a len(target) or cap(target) call in the
// condition of an if/for that encloses the append, or of an earlier if
// whose body rejects (returns or breaks) — the early-reject guard idiom.
func lenGuarded(body ast.Node, pos token.Pos, target string) bool {
	guarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		if guarded {
			return false
		}
		var cond ast.Expr
		var span ast.Node
		var rejects bool
		switch st := n.(type) {
		case *ast.IfStmt:
			cond, span = st.Cond, st
			rejects = bodyRejects(st.Body)
		case *ast.ForStmt:
			cond, span = st.Cond, st
		default:
			return true
		}
		if cond == nil || !condTestsLen(cond, target) {
			return true
		}
		if span.Pos() <= pos && pos <= span.End() {
			guarded = true // append inside the guarded region
		} else if rejects && span.End() < pos {
			guarded = true // guard rejected the overflow case before the append
		}
		return true
	})
	return guarded
}

// condTestsLen reports whether the condition mentions len(target) or
// cap(target).
func condTestsLen(cond ast.Expr, target string) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || (id.Name != "len" && id.Name != "cap") {
			return true
		}
		if exprString(call.Args[0]) == target {
			found = true
			return false
		}
		return true
	})
	return found
}

// bodyRejects reports whether a guard body bails out of the surrounding
// flow: a return, break, continue, goto, or panic anywhere in it.
func bodyRejects(body *ast.BlockStmt) bool {
	rejects := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			rejects = true
			return false
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					rejects = true
					return false
				}
			}
		}
		return true
	})
	return rejects
}
