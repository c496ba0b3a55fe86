// Command sdplint is the repo's multichecker: it runs the standard `go
// vet` passes plus the nine codebase-specific analyzers from
// internal/analysis (lockcheck, goroutinecheck, detrand, sleeptest,
// metricnames, atomicmix, immutcheck, hotalloc, errdrop) over a set of
// package patterns.
//
// Usage:
//
//	go run ./cmd/sdplint ./...
//	go run ./cmd/sdplint -vet=false ./internal/discovery
//	go run ./cmd/sdplint -json ./...   # machine-readable findings
//
// With -json, findings from the project analyzers are written to stdout
// as one JSON array of {file, line, col, message, analyzer} objects —
// the format CI tooling and editors consume; human-readable lines go to
// CI logs via the default mode, which the checked-in GitHub problem
// matcher (.github/sdplint-problem-matcher.json) annotates onto PRs.
//
// Package metadata comes from `go list`, so patterns mean exactly what
// they mean to the go tool. Each package is analyzed three times when it
// has tests — the library files, the library+in-package-test unit, and
// the external _test package — with diagnostics deduplicated so library
// findings are reported once. Findings can be silenced, one line at a
// time, with an explanatory comment:
//
//	//sdplint:ignore <analyzer> <why this is safe>
//
// Exit status is 1 when any analyzer (or vet) reports a finding, so the
// command gates CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"sariadne/internal/analysis"
	"sariadne/internal/analysis/atomicmix"
	"sariadne/internal/analysis/detrand"
	"sariadne/internal/analysis/errdrop"
	"sariadne/internal/analysis/goroutinecheck"
	"sariadne/internal/analysis/hotalloc"
	"sariadne/internal/analysis/immutcheck"
	"sariadne/internal/analysis/load"
	"sariadne/internal/analysis/lockcheck"
	"sariadne/internal/analysis/metricnames"
	"sariadne/internal/analysis/sleeptest"
)

var analyzers = []*analysis.Analyzer{
	lockcheck.Analyzer,
	goroutinecheck.Analyzer,
	detrand.Analyzer,
	sleeptest.Analyzer,
	metricnames.Analyzer,
	atomicmix.Analyzer,
	immutcheck.Analyzer,
	hotalloc.Analyzer,
	errdrop.Analyzer,
}

// finding is one diagnostic in -json output.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

// listedPackage is the subset of `go list -json` output sdplint needs.
type listedPackage struct {
	Dir          string
	ImportPath   string
	Module       *struct{ Path string }
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

func main() {
	vet := flag.Bool("vet", true, "also run the standard `go vet` passes")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout instead of text lines")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sdplint [-vet=false] [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-15s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if *vet && !*jsonOut {
		if !runVet(patterns) {
			failed = true
		}
	}

	pkgs, err := listPackages(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdplint: %v\n", err)
		os.Exit(2)
	}
	findings, ok := runAnalyzers(pkgs, !*jsonOut)
	if !ok {
		failed = true
	}
	if *jsonOut {
		// Always an array (possibly empty), so consumers can parse
		// unconditionally.
		if findings == nil {
			findings = []finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "sdplint: %v\n", err)
			os.Exit(2)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runVet shells out to the toolchain's vet driver so sdplint's custom
// passes run "alongside the standard vet passes" without vendoring them.
func runVet(patterns []string) bool {
	cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if _, ok := err.(*exec.ExitError); ok {
			return false
		}
		// A missing go tool is not a lint finding: report and continue
		// with the custom passes, which need no subprocess.
		fmt.Fprintf(os.Stderr, "sdplint: skipping go vet: %v\n", err)
	}
	return true
}

func listPackages(patterns []string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, patterns...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w", strings.Join(patterns, " "), err)
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

func runAnalyzers(pkgs []*listedPackage, print bool) ([]finding, bool) {
	var findings []finding
	modulePath := ""
	for _, p := range pkgs {
		if p.Module != nil && modulePath == "" {
			modulePath = p.Module.Path
		}
	}
	// The import map must cover the whole module, not just the analyzed
	// patterns: a listed package may import an unlisted sibling, and
	// resolving that sibling through the stdlib fallback importer would
	// give its transitive dependencies a second, non-identical set of
	// type objects.
	moduleFiles := make(map[string][]string)
	deps := pkgs
	if modulePath != "" {
		if all, err := listPackages([]string{modulePath + "/..."}); err == nil {
			deps = all
		}
	}
	for _, p := range deps {
		moduleFiles[p.ImportPath] = abs(p.Dir, p.GoFiles)
	}
	loader := load.NewLoader(modulePath, moduleFiles)

	ok := true
	for _, p := range pkgs {
		// Unit 1: the library files.
		units := []struct {
			path     string
			files    []string
			testOnly bool // report only _test.go diagnostics (dedup)
		}{
			{p.ImportPath, abs(p.Dir, p.GoFiles), false},
		}
		// Unit 2: library + in-package tests, reporting test files only.
		if len(p.TestGoFiles) > 0 {
			units = append(units, struct {
				path     string
				files    []string
				testOnly bool
			}{p.ImportPath, abs(p.Dir, append(append([]string{}, p.GoFiles...), p.TestGoFiles...)), true})
		}
		// Unit 3: the external _test package.
		if len(p.XTestGoFiles) > 0 {
			units = append(units, struct {
				path     string
				files    []string
				testOnly bool
			}{p.ImportPath + "_test", abs(p.Dir, p.XTestGoFiles), false},
			)
		}
		for _, u := range units {
			pkg, err := loader.LoadFiles(u.path, u.files)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sdplint: %v\n", err)
				ok = false
				continue
			}
			for _, a := range analyzers {
				diags, err := analysis.Run(a, loader.Fset, pkg.Files, pkg.Pkg, pkg.Info)
				if err != nil {
					fmt.Fprintf(os.Stderr, "sdplint: %v\n", err)
					ok = false
					continue
				}
				for _, d := range diags {
					pos := loader.Fset.Position(d.Pos)
					if u.testOnly && !strings.HasSuffix(pos.Filename, "_test.go") {
						continue
					}
					findings = append(findings, finding{
						File:     rel(pos.Filename),
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  d.Message,
						Analyzer: d.Analyzer,
					})
					if print {
						fmt.Printf("%s: %s (%s)\n", rel(pos.String()), d.Message, d.Analyzer)
					}
					ok = false
				}
			}
		}
	}
	return findings, ok
}

func abs(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}

// rel trims the working directory prefix so diagnostics read like go
// tool output.
func rel(pos string) string {
	wd, err := os.Getwd()
	if err != nil {
		return pos
	}
	if r, err := filepath.Rel(wd, pos); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return pos
}
