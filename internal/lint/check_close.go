package lint

import (
	"go/ast"
	"go/types"
)

// ClosePropagation enforces the resource-release invariant of the executor
// and storage layers: pager byte accounting is flushed by HeapIter.Close,
// so every operator that owns a child iterator (anything with a no-arg
// Close method: Iterator, BatchIterator, *storage.HeapIter, RowSource, …)
// must forward Close to it. A struct that has such fields and a Close
// method which never releases one of them — directly, through a sibling
// method, via a range loop, or by handing the field to a helper — leaks
// the child's accounting when a LIMIT or an error abandons the plan early.
// Structs that look like iterators (they have Next or NextBatch) but lack
// Close entirely are reported too.
//
// One ownership transfer is recognized beyond direct release: the worker
// hand-off. When a constructor stores a closable value into the field AND
// hands the same value to a spawned method (`go y.worker(i, s)`) whose
// parameter is closed on every path through its CFG (a `defer s.Close()`
// reaching every return), and the type's Close waits on a sync.WaitGroup
// field, then the workers provably close the field's contents before
// Close returns — the partitioned-worker pattern, otherwise only
// expressible as a //lint:ignore.
type ClosePropagation struct{}

// ID implements Check.
func (*ClosePropagation) ID() string { return "close-propagation" }

// Doc implements Check.
func (*ClosePropagation) Doc() string {
	return "operators owning child iterators must forward Close() so pager accounting stays exact"
}

// PackageParallel implements PkgParallel: state is per-struct, per-package.
func (*ClosePropagation) PackageParallel() {}

// Run implements Check.
func (c *ClosePropagation) Run(pass *Pass) {
	pkg := pass.Pkg
	methods := methodsOf(pkg)
	structDecls(pkg, func(name *ast.Ident, st *ast.StructType) {
		obj, ok := pkg.Info.Defs[name]
		if !ok {
			return
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			return
		}
		stype, ok := named.Underlying().(*types.Struct)
		if !ok {
			return
		}
		closable := closableFields(stype)
		if len(closable) == 0 {
			return
		}
		var closeDecl *ast.FuncDecl
		hasNext := false
		for _, m := range methods[name.Name] {
			switch m.Name.Name {
			case "Close":
				closeDecl = m
			case "Next", "NextBatch":
				hasNext = true
			}
		}
		if closeDecl == nil {
			if hasNext {
				pass.Reportf(name.Pos(),
					"%s has Next/NextBatch and closable field %s but no Close method; child resources (pager accounting) cannot be released",
					name.Name, closable[0])
			}
			return
		}
		released := releasedFields(pkg, name.Name, closeDecl, methods)
		var handoff map[string]map[int]bool
		handoffDone := false
		for _, f := range closable {
			if released[f] {
				continue
			}
			// Before reporting, try the worker hand-off proof: the field's
			// values were given to goroutine methods that close their
			// parameter on every path, and Close waits for those
			// goroutines on a WaitGroup.
			if !handoffDone {
				handoffDone = true
				if closeReachesWait(pkg, stype, closeDecl, methods[name.Name]) {
					handoff = handoffClosers(pkg, name.Name, methods)
				}
			}
			if fieldHandedToCloser(pkg, named, f, handoff) {
				continue
			}
			pass.Reportf(closeDecl.Pos(),
				"%s.Close does not release field %q, which has a Close method; early plan abandonment leaks its resources (pager byte accounting)",
				name.Name, f)
		}
	})
}

// closableFields lists the struct's fields (including slice/array fields)
// whose type carries a no-arg Close method. Synchronization primitives and
// function fields are skipped.
func closableFields(st *types.Struct) []string {
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		t, _ := closableElem(f.Type())
		if isSyncType(t) {
			continue
		}
		if _, ok := t.Underlying().(*types.Signature); ok {
			continue
		}
		if hasCloseMethod(t) {
			out = append(out, f.Name())
		}
	}
	return out
}

// releasedFields computes which receiver fields are plausibly released by
// Close: the set of fields that, somewhere in Close or any same-type
// method transitively reachable from it, (a) have .Close() called on them,
// (b) are ranged over with the element later closed or used, or (c) are
// passed to any function or method call (a helper is assumed to take
// ownership).
func releasedFields(pkg *Package, typeName string, closeDecl *ast.FuncDecl, methods map[string][]*ast.FuncDecl) map[string]bool {
	released := make(map[string]bool)
	byName := make(map[string]*ast.FuncDecl, len(methods[typeName]))
	for _, m := range methods[typeName] {
		byName[m.Name.Name] = m
	}
	seen := map[string]bool{}
	var visit func(fd *ast.FuncDecl)
	visit = func(fd *ast.FuncDecl) {
		if fd == nil || fd.Body == nil || seen[fd.Name.Name] {
			return
		}
		seen[fd.Name.Name] = true
		_, recv := receiverNamed(pkg, fd)
		if recv == nil {
			return
		}
		// Range vars aliasing a closable field's elements.
		rangeVars := map[types.Object]string{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.RangeStmt:
				if f, ok := fieldOfReceiver(pkg, x.X, recv); ok {
					if id, ok := x.Value.(*ast.Ident); ok && id.Name != "_" {
						if obj := pkg.Info.Defs[id]; obj != nil {
							rangeVars[obj] = f
						}
					}
				}
			case *ast.CallExpr:
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
					// recv.f.Close() or chain.Close() rooted at recv.f.
					if sel.Sel.Name == "Close" {
						if f, ok := fieldOfReceiver(pkg, sel.X, recv); ok {
							released[f] = true
						}
						// v.Close() where v ranges over recv.f.
						if id, ok := sel.X.(*ast.Ident); ok {
							if obj := pkg.Info.Uses[id]; obj != nil {
								if f, ok := rangeVars[obj]; ok {
									released[f] = true
								}
							}
						}
					}
					// recv.helper(): follow same-type methods.
					if isReceiver(pkg, sel.X, recv) {
						if m, ok := byName[sel.Sel.Name]; ok {
							visit(m)
						}
					}
				}
				// recv.f passed as an argument: the callee owns release.
				for _, arg := range x.Args {
					if f, ok := fieldOfReceiver(pkg, arg, recv); ok {
						released[f] = true
					}
					if id, ok := arg.(*ast.Ident); ok {
						if obj := pkg.Info.Uses[id]; obj != nil {
							if f, ok := rangeVars[obj]; ok {
								released[f] = true
							}
						}
					}
				}
			}
			return true
		})
	}
	visit(closeDecl)
	return released
}

// closeReachesWait reports whether Close (or a same-type method it calls)
// waits on a sync.WaitGroup field of the struct — the synchronization
// that makes a worker hand-off sound: Close cannot return until every
// spawned worker's deferred cleanup has run.
func closeReachesWait(pkg *Package, st *types.Struct, closeDecl *ast.FuncDecl, typeMethods []*ast.FuncDecl) bool {
	wgFields := map[string]bool{}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		named := namedOf(f.Type())
		if named == nil {
			continue
		}
		if p := named.Obj().Pkg(); p != nil && p.Path() == "sync" && named.Obj().Name() == "WaitGroup" {
			wgFields[f.Name()] = true
		}
	}
	if len(wgFields) == 0 {
		return false
	}
	byName := make(map[string]*ast.FuncDecl, len(typeMethods))
	for _, m := range typeMethods {
		byName[m.Name.Name] = m
	}
	seen := map[string]bool{}
	found := false
	var visit func(fd *ast.FuncDecl)
	visit = func(fd *ast.FuncDecl) {
		if fd == nil || fd.Body == nil || seen[fd.Name.Name] || found {
			return
		}
		seen[fd.Name.Name] = true
		_, recv := receiverNamed(pkg, fd)
		if recv == nil {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name == "Wait" {
				if f, ok := fieldOfReceiver(pkg, sel.X, recv); ok && wgFields[f] {
					found = true
				}
			}
			if isReceiver(pkg, sel.X, recv) {
				visit(byName[sel.Sel.Name])
			}
			return true
		})
	}
	visit(closeDecl)
	return found
}

// handoffClosers finds, per method of the type, the parameter positions
// that are provably closed on EVERY path through the method: a must-fact
// over the CFG, generated by `defer q.Close()` (registration guarantees
// the close at whatever return the path reaches) or a direct q.Close()
// call, required to hold at function exit.
func handoffClosers(pkg *Package, typeName string, methods map[string][]*ast.FuncDecl) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, m := range methods[typeName] {
		if m.Body == nil || m.Type.Params == nil {
			continue
		}
		type cand struct {
			idx int
			obj types.Object
		}
		var cands []cand
		pos := 0
		for _, fl := range m.Type.Params.List {
			if len(fl.Names) == 0 {
				pos++
				continue
			}
			for _, nm := range fl.Names {
				if obj := pkg.Info.Defs[nm]; obj != nil && hasCloseMethod(obj.Type()) {
					cands = append(cands, cand{idx: pos, obj: obj})
				}
				pos++
			}
		}
		if len(cands) == 0 {
			continue
		}
		g := BuildCFG(m.Body)
		step := func(n ast.Node, facts Facts) {
			callsIn(n, "Close", func(call *ast.CallExpr) {
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return
				}
				obj := pkg.Info.Uses[id]
				for ci := range cands {
					if cands[ci].obj == obj {
						facts.Set(ci)
					}
				}
			})
		}
		sol := SolveForward(g, MeetMust, len(cands), NewFacts(len(cands), false), func(b *Block, in Facts) Facts {
			for _, n := range b.Nodes {
				step(n, in)
			}
			return in
		})
		exitIn := sol[g.Exit]
		for ci := range cands {
			if exitIn.Has(ci) {
				if out[m.Name.Name] == nil {
					out[m.Name.Name] = map[int]bool{}
				}
				out[m.Name.Name][cands[ci].idx] = true
			}
		}
	}
	return out
}

// fieldHandedToCloser reports whether, somewhere in the package, a value
// stored into the named type's field (y.f = v, y.f[i] = v, or
// y.f = append(y.f, v)) is also handed to a spawned method of the type
// (`go y.M(..., v, ...)`) at a parameter position M provably closes.
func fieldHandedToCloser(pkg *Package, named *types.Named, field string, handoff map[string]map[int]bool) bool {
	if len(handoff) == 0 {
		return false
	}
	sameType := func(e ast.Expr) bool {
		n := namedOf(typeOf(pkg, e))
		return n != nil && n.Obj() == named.Obj()
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			stored := map[types.Object]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for i, lhs := range as.Lhs {
					if i >= len(as.Rhs) {
						break
					}
					target := lhs
					if ix, ok := target.(*ast.IndexExpr); ok {
						target = ix.X
					}
					sel, ok := target.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != field || !sameType(sel.X) {
						continue
					}
					switch rhs := as.Rhs[i].(type) {
					case *ast.Ident:
						if obj := pkg.Info.Uses[rhs]; obj != nil {
							stored[obj] = true
						}
					case *ast.CallExpr:
						if id, ok := rhs.Fun.(*ast.Ident); ok && id.Name == "append" && len(rhs.Args) > 1 {
							for _, a := range rhs.Args[1:] {
								if aid, ok := a.(*ast.Ident); ok {
									if obj := pkg.Info.Uses[aid]; obj != nil {
										stored[obj] = true
									}
								}
							}
						}
					}
				}
				return true
			})
			if len(stored) == 0 {
				continue
			}
			handed := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				sel, ok := gs.Call.Fun.(*ast.SelectorExpr)
				if !ok || !sameType(sel.X) {
					return true
				}
				for pi := range handoff[sel.Sel.Name] {
					if pi < len(gs.Call.Args) {
						if id, ok := gs.Call.Args[pi].(*ast.Ident); ok {
							if obj := pkg.Info.Uses[id]; obj != nil && stored[obj] {
								handed = true
							}
						}
					}
				}
				return true
			})
			if handed {
				return true
			}
		}
	}
	return false
}
