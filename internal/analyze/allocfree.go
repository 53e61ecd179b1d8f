package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
)

// allocfree turns the AllocsPerRun ceilings of the hot paths into a
// compile-time gate: a function annotated `//kfvet:noalloc` must not
// contain any construct that the compiler lowers to a heap allocation
// in steady state, and may only call functions that are themselves
// allocation-free. The contract is interprocedural: unannotated module
// callees are verified transitively over the static call graph, with
// verdicts memoized, so a helper three calls deep that grows a slice
// is reported at the annotated caller's call site with the chain.
//
// Banned inside a noalloc function:
//   - make / new, slice and map composite literals, &CompositeLit
//   - append whose destination is not pool-fed (assigned from a
//     configured pool call such as SlicePool.Get/Grow, or resliced
//     from an existing backing array with x[:0]) — a pool-fed append
//     writes into capacity the pool already owns
//   - string concatenation, string<->[]byte/[]rune conversions, and
//     integer-to-string conversions
//   - conversions (explicit or via call arguments) from a concrete
//     type to an interface type: the boxed value escapes
//   - function literals that capture variables, and go statements
//   - calls to anything except: annotated noalloc/whennil functions,
//     transitively-clean module functions, the configured pool API,
//     sync / sync/atomic, the configured allowlist, non-allocating
//     builtins, and dynamic calls through func-typed parameters of
//     the annotated function itself (the caller chooses the callback;
//     the contract is the parameter's, a documented soundness limit)
//
// `//kfvet:noalloc whennil` is the trace-probe variant: the method
// must open with a terminating nil-receiver guard (the disabled state
// allocates nothing because it never runs), and the enabled path is
// exempt. whennil functions are clean callees for the same reason.
//
// Known soundness limits, documented in DESIGN.md §7.8: interface
// method dispatch is rejected rather than resolved (no class
// hierarchy analysis); escape analysis is not modeled, so
// stack-allocatable composites are still findings; map writes are
// allowed (steady-state flat per DESIGN §6) though rehash can
// allocate; reslice-based pool feeding trusts the reslice source.

// allocVerdict is the memoized transitive result for one unannotated
// module function.
type allocVerdict struct {
	clean bool
	pos   token.Pos // first violating construct
	msg   string    // why, phrased for the caller's report
}

type allocChecker struct {
	m        *module
	verdicts map[*types.Func]*allocVerdict
	visiting map[*types.Func]bool
}

func runAllocFree(m *module) {
	c := &allocChecker{
		m:        m,
		verdicts: make(map[*types.Func]*allocVerdict),
		visiting: make(map[*types.Func]bool),
	}
	for _, fi := range m.infos {
		if !fi.ann.noalloc {
			continue
		}
		if fi.ann.whenNil {
			c.checkWhenNil(fi)
			continue
		}
		c.checkBody(fi, func(pos token.Pos, msg string) bool {
			m.report("allocfree", pos, "%s", msg)
			return true // report every violation in annotated functions
		})
	}
}

// checkWhenNil verifies the disabled-path contract: the method opens
// with a terminating nil-receiver guard, so the nil (disabled) call
// allocates nothing. The enabled path is exempt by annotation.
func (c *allocChecker) checkWhenNil(fi *funcInfo) {
	recv := pointerRecvObj(fi.pkg, fi.decl)
	if recv == nil {
		c.m.report("allocfree", fi.decl.Pos(),
			"%s is marked %s whennil but has no named pointer receiver to guard", fi.decl.Name.Name, noallocMarker)
		return
	}
	if !nilGuarded(fi.pkg, fi.decl.Body, recv) {
		c.m.report("allocfree", fi.decl.Pos(),
			"%s is marked %s whennil but does not open with a terminating `if %s == nil` guard",
			fi.decl.Name.Name, noallocMarker, recv.Name())
	}
}

// pointerRecvObj returns the named pointer-receiver object of a method
// declaration, or nil for plain functions, value receivers, and
// anonymous receivers.
func pointerRecvObj(pkg *Package, decl *ast.FuncDecl) *types.Var {
	if decl.Recv == nil || len(decl.Recv.List) != 1 || len(decl.Recv.List[0].Names) != 1 {
		return nil
	}
	name := decl.Recv.List[0].Names[0]
	if name.Name == "_" {
		return nil
	}
	obj, ok := pkg.Info.Defs[name].(*types.Var)
	if !ok {
		return nil
	}
	if _, isPtr := types.Unalias(obj.Type()).(*types.Pointer); !isPtr {
		return nil
	}
	return obj
}

// nilGuarded reports whether the method body begins with a terminating
// nil guard on the receiver.
func nilGuarded(pkg *Package, body *ast.BlockStmt, recv *types.Var) bool {
	if len(body.List) == 0 {
		return false
	}
	ifStmt, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifStmt.Init != nil {
		return false
	}
	return leadingNilCheck(pkg, ifStmt.Cond, recv) && terminates(ifStmt.Body.List)
}

// leadingNilCheck accepts `recv == nil`, `nil == recv`, and any `||`
// chain whose leftmost operand is such a comparison — short-circuit
// evaluation keeps the later operands nil-safe.
func leadingNilCheck(pkg *Package, cond ast.Expr, recv *types.Var) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.LOR:
		return leadingNilCheck(pkg, bin.X, recv)
	case token.EQL:
		return isRecvNilPair(pkg, bin.X, bin.Y, recv) || isRecvNilPair(pkg, bin.Y, bin.X, recv)
	}
	return false
}

// isRecvNilPair reports whether a is the receiver and b is nil.
func isRecvNilPair(pkg *Package, a, b ast.Expr, recv *types.Var) bool {
	id, ok := ast.Unparen(a).(*ast.Ident)
	return ok && pkg.Info.Uses[id] == recv && isNilExpr(pkg.Info, b)
}

// verdict computes (memoized) whether an unannotated module function
// is transitively allocation-free. Cycles resolve optimistically: a
// recursive function is judged by its own body, not by the in-flight
// recursion.
func (c *allocChecker) verdict(fn *types.Func) *allocVerdict {
	if v, ok := c.verdicts[fn]; ok {
		return v
	}
	if c.visiting[fn] {
		return &allocVerdict{clean: true}
	}
	fi := c.m.byFunc[fn]
	if fi == nil {
		return &allocVerdict{clean: false, msg: funcKey(fn) + " has no analyzable body"}
	}
	c.visiting[fn] = true
	v := &allocVerdict{clean: true}
	c.checkBody(fi, func(pos token.Pos, msg string) bool {
		v.clean = false
		v.pos = pos
		v.msg = msg
		return false // first violation decides the verdict
	})
	delete(c.visiting, fn)
	c.verdicts[fn] = v
	return v
}

// checkBody walks one function body reporting allocation constructs.
// report returns false to stop the walk (verdict mode).
func (c *allocChecker) checkBody(fi *funcInfo, report func(pos token.Pos, msg string) bool) {
	info := fi.pkg.Info
	poolFed := c.poolFedSet(fi)
	params := paramObjs(fi)
	stop := false
	emit := func(pos token.Pos, msg string) {
		if !stop && !report(pos, msg) {
			stop = true
		}
	}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if stop {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if free := capturedVars(fi, n); len(free) > 0 {
				emit(n.Pos(), "function literal captures "+free[0].Name()+"; closures allocate")
			}
			// The literal's own body is still walked: it runs on the
			// hot path unless handed to go (rejected separately).
		case *ast.GoStmt:
			emit(n.Pos(), "go statement allocates a goroutine on the hot path")
		case *ast.CompositeLit:
			switch types.Unalias(info.TypeOf(n)).Underlying().(type) {
			case *types.Slice:
				emit(n.Pos(), "slice literal allocates")
			case *types.Map:
				emit(n.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					emit(n.Pos(), "&composite literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n.X)) {
				emit(n.Pos(), "string concatenation allocates")
			}
		case *ast.CallExpr:
			c.checkCall(fi, n, poolFed, params, emit)
		}
		return !stop
	})
}

// checkCall classifies one call inside a noalloc body.
func (c *allocChecker) checkCall(fi *funcInfo, call *ast.CallExpr, poolFed map[string]bool, params map[types.Object]bool, emit func(token.Pos, string)) {
	info := fi.pkg.Info

	// Conversion T(x): flag boxing and string-materializing shapes.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		c.checkConversion(fi, call.Pos(), tv.Type, info.TypeOf(call.Args[0]), emit)
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			switch id.Name {
			case "make":
				emit(call.Pos(), "make allocates")
			case "new":
				emit(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 && !poolFed[types.ExprString(call.Args[0])] {
					emit(call.Pos(), "append to "+types.ExprString(call.Args[0])+
						" may grow beyond the pool (destination is not pool-fed)")
				}
			}
			// len/cap/copy/delete/clear/min/max/panic/print do not
			// allocate (panic terminates; its boxing is off the
			// steady-state path).
			return
		}
	}

	fn := staticCallee(fi.pkg, call)
	if fn == nil {
		// Dynamic call through a func value. A func-typed parameter of
		// the annotated function is the caller's responsibility; any
		// other func value is an opaque allocation risk.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && params[obj] {
				c.checkIfaceArgs(fi, call, nil, emit)
				return
			}
		}
		emit(call.Pos(), "dynamic call through func value "+types.ExprString(call.Fun)+
			" cannot be verified allocation-free")
		return
	}
	if isIfaceMethod(fn) {
		emit(call.Pos(), "interface method call "+funcKey(fn)+" dispatches dynamically and cannot be verified allocation-free")
		return
	}

	key := funcKey(fn)
	cfg := c.m.cfg
	switch {
	case cfg.NoallocPoolFuncs[key], cfg.NoallocExemptCallees[key]:
		// The pool API is the boundary of the contract: Get/Grow/Put
		// allocate internally on a miss by design ("the pool is the
		// pool"); noalloc means no allocation beyond it.
		return
	case cfg.NoallocAllowedFuncs[key]:
		return
	}
	if fn.Pkg() != nil && cfg.NoallocAllowedPkgs[fn.Pkg().Path()] {
		return
	}
	if fi2 := c.m.byFunc[fn]; fi2 != nil {
		if fi2.ann.noalloc {
			// Annotated callees are verified at their own declaration.
			c.checkIfaceArgs(fi, call, fn, emit)
			return
		}
		if v := c.verdict(fn); !v.clean {
			where := ""
			if v.pos.IsValid() {
				where = " at " + c.m.fset.Position(v.pos).String()
			}
			emit(call.Pos(), "call to "+key+" is not allocation-free: "+v.msg+where)
			return
		}
		c.checkIfaceArgs(fi, call, fn, emit)
		return
	}
	emit(call.Pos(), "call to "+key+" is outside the noalloc allowlist and cannot be verified allocation-free")
}

// checkIfaceArgs flags concrete-to-interface conversions at call
// boundaries of otherwise-allowed calls: passing a concrete value to
// an interface parameter boxes it.
func (c *allocChecker) checkIfaceArgs(fi *funcInfo, call *ast.CallExpr, fn *types.Func, emit func(token.Pos, string)) {
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	info := fi.pkg.Info
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < sig.Params().Len()-1 || (i == sig.Params().Len()-1 && !sig.Variadic()):
			pt = sig.Params().At(i).Type()
		case sig.Variadic() && sig.Params().Len() > 0:
			st, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		default:
			continue
		}
		at := info.TypeOf(arg)
		if at == nil {
			continue
		}
		if types.IsInterface(pt) && !types.IsInterface(at) && !isNilExpr(info, arg) {
			emit(arg.Pos(), "passing concrete "+at.String()+" to interface parameter of "+funcKey(fn)+" boxes the value")
		}
	}
}

// checkConversion flags allocating conversion shapes.
func (c *allocChecker) checkConversion(fi *funcInfo, pos token.Pos, to, from types.Type, emit func(token.Pos, string)) {
	if to == nil || from == nil {
		return
	}
	tu := types.Unalias(to).Underlying()
	fu := types.Unalias(from).Underlying()
	if types.IsInterface(to) && !types.IsInterface(from) {
		emit(pos, "conversion of "+from.String()+" to interface "+to.String()+" boxes the value")
		return
	}
	if isStringType(to) {
		switch f := fu.(type) {
		case *types.Slice:
			emit(pos, "[]byte/[]rune-to-string conversion allocates")
		case *types.Basic:
			if f.Info()&types.IsInteger != 0 && f.Kind() != types.UntypedRune {
				emit(pos, "integer-to-string conversion allocates")
			}
		}
		return
	}
	if _, isSlice := tu.(*types.Slice); isSlice && isStringType(from) {
		emit(pos, "string-to-[]byte/[]rune conversion allocates")
	}
}

// poolFedSet collects the expressions (by printed form) that appear as
// assignment targets of configured pool calls or of reslices — the
// destinations append may legally write into.
func (c *allocChecker) poolFedSet(fi *funcInfo) map[string]bool {
	fed := make(map[string]bool)
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			switch r := ast.Unparen(rhs).(type) {
			case *ast.CallExpr:
				if fn := staticCallee(fi.pkg, r); fn != nil && c.m.cfg.NoallocPoolFuncs[funcKey(fn)] {
					fed[types.ExprString(as.Lhs[i])] = true
				}
			case *ast.SliceExpr:
				// kept := e.postings[:0] — reuse of an existing backing
				// array. The source's capacity bounds the appends.
				fed[types.ExprString(as.Lhs[i])] = true
			}
		}
		return true
	})
	return fed
}

// paramObjs collects the parameter objects of the declaration,
// including func-typed callbacks the caller supplies.
func paramObjs(fi *funcInfo) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if fi.decl.Type.Params == nil {
		return out
	}
	for _, field := range fi.decl.Type.Params.List {
		for _, name := range field.Names {
			if obj := fi.pkg.Info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// capturedVars returns variables the literal references but does not
// define — the free variables a closure must box.
func capturedVars(fi *funcInfo, lit *ast.FuncLit) []*types.Var {
	info := fi.pkg.Info
	defined := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				defined[obj] = true
			}
		}
		return true
	})
	var free []*types.Var
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || defined[v] || seen[v] {
			return true
		}
		// Package-level variables are not captured; they are addressed
		// directly.
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
		seen[v] = true
		free = append(free, v)
		return true
	})
	return free
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isNilExpr reports whether the expression is the untyped nil.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		_, isNil := info.Uses[id].(*types.Nil)
		return isNil
	}
	return false
}
