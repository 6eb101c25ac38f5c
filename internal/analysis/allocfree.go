package analysis

import (
	"go/ast"
	"go/types"
)

// AnalyzerAllocfree (cdnlint/allocfree) guards the allocation discipline
// of hot paths annotated with a //cdnlint:allocfree doc comment (the
// send/export/restore paths pinned by TestSendPathZeroAllocs,
// TestExportPathAllocBudget, and TestRestoreAllocBudget, and the digest
// encoders pinned by TestStateDigestAllocBudget). Inside an
// annotated function it flags the allocation classes those tests exist to
// catch creeping back in:
//
//   - function literals (every closure is a heap allocation once it
//     escapes into the event queue);
//   - fmt package calls (formatting allocates; calls whose result feeds
//     directly into a return statement or panic are allowed — cold exit
//     paths never run in the measured regime);
//   - map and slice composite literals;
//   - interface boxing: passing, assigning, or returning a non-pointer
//     concrete value where an interface is expected.
//
// The annotation deliberately does not forbid make() or struct literals:
// the gated paths allocate bounded bookkeeping by design (alloc tests
// budget it); the analyzer targets the per-message allocation classes.
var AnalyzerAllocfree = &Analyzer{
	Name: "allocfree",
	Doc: "flag closures, fmt calls, map/slice literals, and interface boxing inside functions " +
		"annotated //cdnlint:allocfree (the alloc-test-gated hot paths)",
	Run: runAllocfree,
}

func runAllocfree(pass *Pass) {
	for _, fd := range funcDecls(pass.Files) {
		if fd.Body == nil || !funcHasMarker(fd.Doc, "allocfree") {
			continue
		}
		coldCalls := coldPathCalls(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.FuncLit:
				pass.Reportf(e.Pos(), "closure in //cdnlint:allocfree function %s allocates; "+
					"use a shared func plus a pooled payload (netsim.Sim.AtCall pattern)", fd.Name.Name)
				return false // the literal's body is not on the annotated path
			case *ast.CompositeLit:
				if tv, ok := pass.Info.Types[e]; ok {
					switch tv.Type.Underlying().(type) {
					case *types.Map:
						pass.Reportf(e.Pos(), "map literal in //cdnlint:allocfree function %s allocates", fd.Name.Name)
					case *types.Slice:
						pass.Reportf(e.Pos(), "slice literal in //cdnlint:allocfree function %s allocates", fd.Name.Name)
					}
				}
			case *ast.CallExpr:
				pass.checkAllocCall(fd, e, coldCalls)
			case *ast.AssignStmt:
				for i, rhs := range e.Rhs {
					if len(e.Lhs) == len(e.Rhs) {
						if lt, ok := pass.Info.Types[e.Lhs[i]]; ok {
							pass.checkBoxing(fd, lt.Type, rhs)
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range e.Values {
					if i < len(e.Names) {
						if obj := pass.Info.Defs[e.Names[i]]; obj != nil {
							pass.checkBoxing(fd, obj.Type(), v)
						}
					}
				}
			case *ast.ReturnStmt:
				sig, ok := pass.Info.Defs[fd.Name].Type().(*types.Signature)
				if !ok {
					return true
				}
				if sig.Results().Len() == len(e.Results) {
					for i, res := range e.Results {
						pass.checkBoxing(fd, sig.Results().At(i).Type(), res)
					}
				}
			}
			return true
		})
	}
}

// coldPathCalls collects fmt calls whose result feeds directly into a
// return statement or a panic: those only execute on failure exits, which
// by construction are off the measured hot path.
func coldPathCalls(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	cold := map[*ast.CallExpr]bool{}
	mark := func(e ast.Expr) {
		if call, ok := e.(*ast.CallExpr); ok {
			cold[call] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range e.Results {
				mark(r)
			}
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "panic" {
				for _, a := range e.Args {
					mark(a)
				}
			}
		}
		return true
	})
	return cold
}

// checkAllocCall flags fmt package calls and interface-boxing arguments.
func (p *Pass) checkAllocCall(fd *ast.FuncDecl, call *ast.CallExpr, cold map[*ast.CallExpr]bool) {
	// Type conversions: T(x) where T is an interface boxes x.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			p.checkBoxing(fd, tv.Type, call.Args[0])
		}
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			return // panicking is cold by definition; its boxing is free
		}
	}
	callee := calleeFunc(p.Info, call)
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		if !cold[call] {
			p.Reportf(call.Pos(), "fmt.%s in //cdnlint:allocfree function %s allocates on the hot path "+
				"(only returns and panics may format)", callee.Name(), fd.Name.Name)
		}
		return
	}
	// Boxing through parameters.
	sig, ok := typeOf(p.Info, call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // f(xs...) passes the slice through unboxed
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		p.checkBoxing(fd, pt, arg)
	}
}

// checkBoxing flags storing a non-pointer-shaped concrete value into an
// interface-typed destination: the conversion heap-allocates the boxed
// copy on every occurrence.
func (p *Pass) checkBoxing(fd *ast.FuncDecl, dst types.Type, src ast.Expr) {
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	st := typeOf(p.Info, src)
	if st == nil {
		return
	}
	if isUntypedNil(st) {
		return
	}
	switch st.Underlying().(type) {
	case *types.Interface:
		return // interface-to-interface carries the existing box
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: stored inline in the interface word
	}
	if b, ok := st.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return
	}
	p.Reportf(src.Pos(), "interface boxing of %s in //cdnlint:allocfree function %s allocates; "+
		"pass a pointer or restructure the call", st.String(), fd.Name.Name)
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// calleeFunc resolves the called function object, or nil for builtins,
// conversions, and dynamic calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
