package analyze

import (
	"go/ast"
	"go/types"
	"strings"
)

// nilrecv enforces the nil-receiver-safe contract in packages that opt
// in with a `//kfvet:nilsafe` marker comment: tracing and recording hooks
// are designed so a nil *Trace or nil *Recorder is the disabled state,
// letting call sites skip nil checks entirely. That contract holds only
// if every pointer-receiver method guards the receiver before touching
// fields — one unguarded method turns "tracing disabled" into a panic
// on the query path.
//
// The rule: a pointer-receiver method that reads or writes receiver
// fields must begin with a guard of the form
//
//	if recv == nil { return ... }
//
// (optionally `if recv == nil || more { ... }` — short-circuit keeps
// the extra condition safe) whose body terminates. Methods that only
// call other methods on the receiver need no guard: the callee guards.

// nilsafeMarker opts a package into the nilrecv analyzer.
const nilsafeMarker = "//kfvet:nilsafe"

func runNilRecv(p *pass) {
	if !hasMarker(p.pkg, nilsafeMarker) {
		return
	}
	funcBodies(p.pkg, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		recv := pointerRecvObj(p, decl)
		if recv == nil {
			return
		}
		if !touchesFields(p, body, recv) || nilGuarded(p, body, recv) {
			return
		}
		p.report(decl.Pos(), "method %s touches receiver fields without a leading `if %s == nil` guard (package is %s)",
			decl.Name.Name, recv.Name(), nilsafeMarker)
	})
}

// hasMarker reports whether any file comment in the package is the
// given marker directive.
func hasMarker(pkg *Package, marker string) bool {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(c.Text) == marker {
					return true
				}
			}
		}
	}
	return false
}

// pointerRecvObj returns the named pointer-receiver object of a method
// declaration, or nil for plain functions, value receivers, and
// anonymous receivers.
func pointerRecvObj(p *pass, decl *ast.FuncDecl) *types.Var {
	if decl.Recv == nil || len(decl.Recv.List) != 1 || len(decl.Recv.List[0].Names) != 1 {
		return nil
	}
	name := decl.Recv.List[0].Names[0]
	if name.Name == "_" {
		return nil
	}
	obj, ok := p.pkg.Info.Defs[name].(*types.Var)
	if !ok {
		return nil
	}
	if _, isPtr := types.Unalias(obj.Type()).(*types.Pointer); !isPtr {
		return nil
	}
	return obj
}

// touchesFields reports whether body contains a field selection on the
// receiver (`recv.field` where field is a struct field, not a method).
func touchesFields(p *pass, body *ast.BlockStmt, recv *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return !found
		}
		base, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || p.pkg.Info.Uses[base] != recv {
			return !found
		}
		if fld, ok := p.pkg.Info.Uses[sel.Sel].(*types.Var); ok && fld.IsField() {
			found = true
		}
		return !found
	})
	return found
}

// nilGuarded reports whether the method body begins with a terminating
// nil guard on the receiver.
func nilGuarded(p *pass, body *ast.BlockStmt, recv *types.Var) bool {
	if len(body.List) == 0 {
		return false
	}
	ifStmt, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifStmt.Init != nil {
		return false
	}
	return leadingNilCheck(p, ifStmt.Cond, recv) && terminates(ifStmt.Body.List)
}

// leadingNilCheck accepts `recv == nil`, `nil == recv`, and any `||`
// chain whose leftmost operand is such a comparison — short-circuit
// evaluation keeps the later operands nil-safe.
func leadingNilCheck(p *pass, cond ast.Expr, recv *types.Var) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op.String() {
	case "||":
		return leadingNilCheck(p, bin.X, recv)
	case "==":
		return isRecvNilPair(p, bin.X, bin.Y, recv) || isRecvNilPair(p, bin.Y, bin.X, recv)
	}
	return false
}

// isRecvNilPair reports whether a is the receiver and b is nil.
func isRecvNilPair(p *pass, a, b ast.Expr, recv *types.Var) bool {
	id, ok := ast.Unparen(a).(*ast.Ident)
	if !ok || p.pkg.Info.Uses[id] != recv {
		return false
	}
	nb, ok := ast.Unparen(b).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := p.pkg.Info.Uses[nb].(*types.Nil)
	return isNil
}
