package lint

import (
	"go/ast"
	"go/types"
)

// HotAlloc enforces allocation discipline in packages marked with a
// //tess:hotpath directive comment (voronoi, qhull, geom — the kernels
// the per-cell clipping loop lives in). Three patterns are flagged:
//
//   - sort.Slice / sort.SliceStable anywhere in the package: the
//     less-closure escapes into sort's reflect-based machinery and
//     allocates on every call; hot code orders through closure-free code
//     (voronoi.heapifyCandidates treatment).
//   - map literals and make(map...) lexically inside a loop body: a
//     fresh hash table per iteration, plus nondeterministic iteration
//     downstream.
//   - append whose destination slice is born inside a loop (declared in
//     the loop body, or a fresh literal/nil base): a growing allocation
//     every iteration. Scratch-owned buffers (any type named Scratch)
//     and caller-provided buffers (parameters) amortize across calls and
//     are exempt; so are slices declared outside the loop, which grow
//     once and are reused.
//
// The zero-allocation clipping kernels of PR 1 (ComputeCell: 1031 -> 4
// allocs/op) are protected by benchmarks only at the call sites the
// benchmarks exercise; this analyzer protects every function in the
// marked packages, including ones written after the benchmarks.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "hot-path packages must not allocate per iteration (closures, maps, loop-born slices)",
	Run:  runHotAlloc,
}

// hotPathMarker is the directive comment that opts a package into
// HotAlloc; place it next to the package clause of the package's doc file.
const hotPathMarker = "//tess:hotpath"

// isHotPath reports whether any file of the package carries the marker.
func isHotPath(pkg *Package) bool {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text == hotPathMarker {
					return true
				}
			}
		}
	}
	return false
}

func runHotAlloc(p *Pass) {
	if !isHotPath(p.Pkg) {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, fs := range funcScopes(p, file) {
			checkHotScope(p, fs)
		}
	}
}

func checkHotScope(p *Pass, fs funcScope) {
	var loops []ast.Node
	var walk func(n ast.Node)
	walkList := func(stmts []ast.Stmt) {
		for _, s := range stmts {
			walk(s)
		}
	}
	walk = func(n ast.Node) {
		switch x := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			return // separate scope; funcScopes covers it
		case *ast.ForStmt:
			walk(x.Init)
			walk(x.Cond)
			walk(x.Post)
			loops = append(loops, x)
			walk(x.Body)
			loops = loops[:len(loops)-1]
			return
		case *ast.RangeStmt:
			walk(x.X)
			loops = append(loops, x)
			walk(x.Body)
			loops = loops[:len(loops)-1]
			return
		case *ast.CompositeLit:
			if len(loops) > 0 && isMapType(p.TypeOf(x)) {
				p.Reportf(x.Pos(), "map literal allocated inside a loop in a //tess:hotpath package")
			}
		case *ast.CallExpr:
			checkHotCall(p, fs, x, loops)
		}
		// Generic traversal for everything not handled above.
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			walk(c)
			return false
		})
	}
	walkList(fs.body.List)
}

func checkHotCall(p *Pass, fs funcScope, call *ast.CallExpr, loops []ast.Node) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Slice" || sel.Sel.Name == "SliceStable" {
			if obj := p.ObjectOf(sel.Sel); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sort" {
				p.Reportf(call.Pos(),
					"sort.%s allocates its less-closure per call in a //tess:hotpath package; use a closure-free sort",
					sel.Sel.Name)
			}
		}
	}
	if len(loops) == 0 {
		return
	}
	if isBuiltin(p, call, "make") && len(call.Args) > 0 && isMapType(p.TypeOf(call)) {
		p.Reportf(call.Pos(), "make(map) inside a loop in a //tess:hotpath package")
	}
	if isBuiltin(p, call, "append") && len(call.Args) > 0 {
		checkHotAppend(p, fs, call, loops)
	}
}

func checkHotAppend(p *Pass, fs funcScope, call *ast.CallExpr, loops []ast.Node) {
	base := ast.Unparen(call.Args[0])
	// append onto a fresh allocation every iteration.
	switch base.(type) {
	case *ast.CompositeLit:
		p.Reportf(call.Pos(), "append onto a fresh slice literal inside a loop in a //tess:hotpath package")
		return
	}
	root := rootIdent(base)
	if root == nil {
		return
	}
	obj := p.ObjectOf(root)
	if obj == nil || fs.params[obj] {
		return
	}
	// Scratch-owned buffers are the sanctioned reuse mechanism.
	if n := namedType(obj.Type()); n != nil && n.Obj().Name() == "Scratch" {
		return
	}
	// A slice reached through a pointer (f.conflicts with f a *face range
	// variable, say) lives in the pointee, which outlives the loop variable
	// holding the pointer; growth amortizes across iterations.
	if base != root {
		if _, ok := obj.Type().Underlying().(*types.Pointer); ok {
			return
		}
	}
	for _, loop := range loops {
		if declaredWithin(obj, loop) {
			p.Reportf(call.Pos(),
				"append to %s, born inside this loop, allocates per iteration in a //tess:hotpath package; hoist it or use scratch storage",
				root.Name)
			return
		}
	}
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
