package analyze

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// This file is the shared substrate of the kfvet v2 interprocedural
// analyzers (allocfree, failpointcov, lockorder-infer, seqlockcheck): a
// module-wide index of every function declaration keyed
// by its *types.Func object, the `//kfvet:` annotation grammar parsed
// off declaration doc comments, and static call-target resolution.
//
// Object identity is what makes the index cross-package: LoadModule
// type-checks every package in one shared universe, so the *types.Func
// a caller's ident resolves to IS the object the callee's declaration
// defined. Generic instantiations are normalized with Origin(), so
// Entry[string].insert and Entry[int64].insert index to one funcInfo.

// annotation is the parsed `//kfvet:` contract of one function.
type annotation struct {
	// noalloc marks the function as a 0-allocation hot path checked by
	// allocfree. whenNil restricts the contract to the nil-receiver
	// (disabled) path: the method must open with a terminating nil
	// guard, and the enabled path is exempt.
	noalloc bool
	whenNil bool
	// seqlock names the function's role in the seqlock slot protocol:
	// "writer" or "reader".
	seqlock string
}

// funcInfo is one module function declaration plus everything the
// interprocedural analyzers need to reason about it.
type funcInfo struct {
	fn   *types.Func
	pkg  *Package
	decl *ast.FuncDecl
	ann  annotation
}

// module is the cross-package analysis context built once per Run.
type module struct {
	pkgs     []*Package
	cfg      Config
	fset     *token.FileSet
	findings *[]Finding
	// byFunc indexes every function/method declaration with a body by
	// its (Origin-normalized) type object.
	byFunc map[*types.Func]*funcInfo
	// infos holds the same entries in deterministic declaration order.
	infos []*funcInfo
}

// report records one finding against a module-level analyzer.
func (m *module) report(analyzer string, pos token.Pos, format string, args ...interface{}) {
	*m.findings = append(*m.findings, Finding{
		Analyzer: analyzer,
		Pos:      m.fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// buildModule indexes every function declaration and parses its
// annotations. Annotation syntax errors are findings, not panics: a
// typo'd marker silently disabling a contract is exactly the drift
// kfvet exists to catch.
func buildModule(pkgs []*Package, cfg Config, findings *[]Finding) *module {
	m := &module{
		pkgs:     pkgs,
		cfg:      cfg,
		findings: findings,
		byFunc:   make(map[*types.Func]*funcInfo),
	}
	if len(pkgs) > 0 {
		m.fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &funcInfo{fn: fn.Origin(), pkg: pkg, decl: fd, ann: m.parseAnnotations(fd)}
				m.byFunc[fi.fn] = fi
				m.infos = append(m.infos, fi)
			}
		}
	}
	return m
}

// Annotation markers. Each applies to the function whose doc comment
// carries it.
const (
	noallocMarker = "//kfvet:noalloc" // optional arg: whennil
	seqlockMarker = "//kfvet:seqlock" // arg: writer | reader
)

// parseAnnotations reads the kfvet markers off a declaration's doc
// comment group.
func (m *module) parseAnnotations(decl *ast.FuncDecl) annotation {
	var ann annotation
	if decl.Doc == nil {
		return ann
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(c.Text)
		marker, rest := text, ""
		if i := strings.IndexAny(text, " \t"); i >= 0 {
			marker, rest = text[:i], strings.TrimSpace(text[i+1:])
		}
		switch marker {
		case noallocMarker:
			ann.noalloc = true
			switch rest {
			case "", "whennil":
				ann.whenNil = rest == "whennil"
			default:
				m.report("annotation", c.Pos(), "malformed %s argument %q (want nothing or \"whennil\")", noallocMarker, rest)
			}
		case seqlockMarker:
			switch rest {
			case "writer", "reader":
				ann.seqlock = rest
			default:
				m.report("annotation", c.Pos(), "malformed %s argument %q (want \"writer\" or \"reader\")", seqlockMarker, rest)
			}
		}
	}
	return ann
}

// funcKey renders the configured identity of a function object:
// "pkgpath.Type.method" for methods (the generic origin type for
// instantiations), "pkgpath.func" for package-level functions.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		return fn.FullName()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.FullName()
}

// staticCallee resolves a call expression to the function object it
// statically invokes, or nil for dynamic calls (func values, and
// interface-method dispatch — see isIfaceMethod for the latter).
// Generic instantiations (explicit or inferred) normalize to their
// Origin so the result indexes module.byFunc.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// Explicit instantiation: f[T](...) / f[K, V](...).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// isIfaceMethod reports whether fn is declared on an interface, i.e.
// calls through it dispatch dynamically.
func isIfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// constStringArg resolves an expression to its compile-time string
// value, or ("", false) when it is not a string constant.
func constStringArg(pkg *Package, arg ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
