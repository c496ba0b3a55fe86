// Package metricnames enforces the repo's telemetry conventions.
//
// Metric names form a process-wide flat namespace that dashboards and the
// federation-smoke CI check scrape by name, so three rules keep it auditable:
// names are snake_case with a subsystem prefix (`registry_insert_seconds`,
// not `insertSeconds` or `latency`); metrics register once at package
// initialization, never on request paths where a typo'd or unbounded name
// set leaks memory and panics on duplicates; and names are string
// literals, so the full namespace is greppable. Calls on an explicit
// *telemetry.Registry are exempt from the at-init rule (scoped registries
// are how tests and tools isolate themselves) but still get name checks.
// _test.go files and the telemetry package itself are exempt.
package metricnames

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"sariadne/internal/analysis"
)

// Analyzer checks telemetry metric naming and registration discipline.
var Analyzer = &analysis.Analyzer{
	Name: "metricnames",
	Doc: "telemetry metrics must use literal snake_case prefixed names " +
		"and register at package init, not on hot paths",
	Run: run,
}

// nameRe is the same shape telemetry.Registry enforces at runtime: at
// least two lowercase segments, so every name carries a subsystem prefix.
var nameRe = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

// constructors are the metric-creating entry points, both the
// package-level forms and the *Registry methods.
var constructors = map[string]bool{
	"NewCounter":        true,
	"NewGauge":          true,
	"NewBoolGauge":      true,
	"NewFloatGauge":     true,
	"NewHistogram":      true,
	"NewSizeHistogram":  true,
	"NewLabeledGauge":   true,
	"NewLabeledCounter": true,
}

// labeled are the constructors whose third argument is a label key.
var labeled = map[string]bool{
	"NewLabeledGauge":   true,
	"NewLabeledCounter": true,
}

// labelRe bounds labeled-family label keys: a bare lowercase identifier
// ("tenant"), since the key lands verbatim inside every exposition line.
var labelRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

func telemetryPath(path string) bool {
	return path == "sariadne/internal/telemetry" || strings.HasSuffix(path, "/internal/telemetry")
}

func run(pass *analysis.Pass) error {
	if telemetryPath(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				// Package-level var initializers run once at init time.
				checkCalls(pass, d, true)
			case *ast.FuncDecl:
				atInit := d.Recv == nil && d.Name.Name == "init"
				checkCalls(pass, d, atInit)
			}
		}
	}
	return nil
}

func checkCalls(pass *analysis.Pass, root ast.Node, atInit bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !constructors[sel.Sel.Name] {
			return true
		}
		obj, isFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !isFn || obj.Pkg() == nil || !telemetryPath(obj.Pkg().Path()) {
			return true
		}
		// telemetry.NewX(...) registers in the process-wide default
		// registry; r.NewX(...) targets an explicit scoped one.
		pkgQualified := false
		if id, ok := sel.X.(*ast.Ident); ok {
			_, pkgQualified = pass.TypesInfo.Uses[id].(*types.PkgName)
		}
		if pkgQualified && !atInit {
			pass.Reportf(call.Pos(),
				"telemetry.%s outside a package-level var or init registers metrics dynamically; "+
					"hot-path registration leaks and panics on duplicates", sel.Sel.Name)
		}
		if len(call.Args) > 0 {
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err == nil && !nameRe.MatchString(name) {
					pass.Reportf(call.Args[0].Pos(),
						"metric name %q is not snake_case with a subsystem prefix (want %s)",
						name, nameRe)
				}
			} else if pkgQualified {
				pass.Reportf(call.Args[0].Pos(),
					"metric name must be a string literal so the namespace stays greppable")
			}
		}
		// NewLabeledGauge/NewLabeledCounter(name, help, label): the label
		// key is scraped verbatim into every `name{label="..."}` line, so
		// it follows the same literal-and-greppable discipline as the
		// family name.
		if labeled[sel.Sel.Name] && len(call.Args) > 2 {
			if lit, ok := call.Args[2].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				label, err := strconv.Unquote(lit.Value)
				if err == nil && !labelRe.MatchString(label) {
					pass.Reportf(call.Args[2].Pos(),
						"label key %q is not a lowercase identifier (want %s)", label, labelRe)
				}
			} else if pkgQualified {
				pass.Reportf(call.Args[2].Pos(),
					"label key must be a string literal so the namespace stays greppable")
			}
		}
		return true
	})
}
