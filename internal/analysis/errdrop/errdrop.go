// Package errdrop flags silently discarded errors on the calls where a
// dropped error loses data: transport sends and closes, store mutations
// and journal appends. A federation daemon that ignores a journal append
// error acknowledges a write it will not replay after a crash; a dropped
// transport close leaks the peer's writer queue.
//
// Scope — a call is in scope when its callee is
//
//   - a function or method of sariadne/internal/transport,
//     sariadne/internal/store, sariadne/internal/framelog or
//     sariadne/internal/telemetry (or any package under them), or
//   - a method whose receiver type name contains "journal" or "store"
//     (case-insensitive), wherever it is declared.
//
// The store path prefix covers the implementations too
// (internal/store/boltlike, memstore), and framelog is the durable log
// under them and the telemetry journal: a dropped Append error there
// acknowledges a write the directory will not replay.
//
// A finding is an in-scope call whose error result is discarded
// *implicitly*: used as a bare expression statement, or launched with go
// or defer. Assigning the error to blank (`_ = j.close()`) is NOT
// flagged — the repo's convention is that a visible blank assignment is
// an acknowledged, reviewable drop (fire-and-forget sends on lossy
// links), while a bare call is presumed an accident. Suppress deliberate
// bare drops with an //sdplint:ignore errdrop comment instead.
package errdrop

import (
	"go/ast"
	"go/types"
	"strings"

	"sariadne/internal/analysis"
)

// Analyzer flags implicitly discarded errors on transport, store and
// journal calls.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc: "check that errors returned by transport, store and journal calls are " +
		"handled or explicitly assigned to blank, never silently dropped",
	Run: run,
}

// guardedPathPrefixes scopes rule 1: every function or method declared
// under these package paths is in scope regardless of receiver name. Kept
// a var so the analyzer tests can exercise the path logic with testdata
// packages.
var guardedPathPrefixes = []string{
	"sariadne/internal/transport",
	"sariadne/internal/store",
	"sariadne/internal/framelog",
	// The telemetry journal is the soak record of truth: an append error
	// dropped on the floor silently forfeits the history the drift
	// watchdog and post-mortems read. The prefix covers the whole
	// package, so exposition writers and profile captures are guarded
	// too.
	"sariadne/internal/telemetry",
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					check(pass, call, "")
				}
			case *ast.GoStmt:
				check(pass, n.Call, "go ")
			case *ast.DeferStmt:
				check(pass, n.Call, "defer ")
			}
			return true
		})
	}
	return nil
}

// check reports the call when it is in scope and returns an error that
// the surrounding statement discards.
func check(pass *analysis.Pass, call *ast.CallExpr, how string) {
	fn := callee(pass, call)
	if fn == nil || !inScope(fn) {
		return
	}
	if !returnsError(fn) {
		return
	}
	pass.Reportf(call.Pos(),
		"%serror returned by %s.%s is silently dropped; handle it or assign it to _ with a reason",
		how, receiverOrPkg(fn), fn.Name())
}

// callee resolves the called function object, for both plain calls and
// method calls.
func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// inScope applies the transport/store/journal scoping rules.
func inScope(fn *types.Func) bool {
	if fn.Pkg() != nil {
		path := fn.Pkg().Path()
		for _, prefix := range guardedPathPrefixes {
			if path == prefix || strings.HasPrefix(path, prefix+"/") {
				return true
			}
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	name := strings.ToLower(receiverTypeName(sig.Recv().Type()))
	return strings.Contains(name, "journal") || strings.Contains(name, "store")
}

func receiverTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return ""
	}
	return ""
}

func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if isErrorType(results.At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func receiverOrPkg(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name := receiverTypeName(sig.Recv().Type()); name != "" {
			return name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name()
	}
	return "?"
}
