// Package lint is coordvet's analysis framework: a stdlib-only static
// analysis driver (go/ast + go/types, no external modules) that enforces the
// repo's domain contracts — determinism of the control plane, flight-recorder
// ordering, nil-safe observability, mutex discipline, and error hygiene —
// before the code ever runs. The runtime tests (digest determinism, chaos,
// storm acceptance) catch these bug classes after the fact; coordvet rejects
// them at review time with a position and a reason.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis in
// miniature (Analyzer/Pass/Diagnostic, `// want` golden fixtures,
// `//coordvet:ignore` suppressions) so the analyzers would port to the real
// driver if the zero-dependency constraint is ever lifted.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a single type-checked package
// and reports findings through the pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //coordvet:ignore comments.
	Name string
	// Doc is a short description of the contract the analyzer enforces.
	Doc string
	// Run executes the check over pass.Pkg.
	Run func(*Pass)
}

// All lists every analyzer in the suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, MapOrder, ObsNil, LockDiscipline, ErrDrop,
		UnitSafety, GoroutineDiscipline}
}

// ByName resolves a comma-separated analyzer list ("determinism,errdrop").
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
	}
	return out, nil
}

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package plus the whole-program
// context (cross-package guarded-field annotations).
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Callee resolves the *types.Func a call expression invokes (static calls
// and method calls; nil for calls through function values, conversions, and
// builtins).
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Pkg.Info.Uses[id].(*types.Func)
	return fn
}

// IsConversion reports whether the call is a type conversion, not a
// function call.
func (p *Pass) IsConversion(call *ast.CallExpr) bool {
	tv, ok := p.Pkg.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// Package is one parsed, type-checked package.
type Package struct {
	// Path is the import path ("coordcharge/internal/obs").
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Fset  *token.FileSet
}

// GuardInfo is one `// guarded by <mutex>` field annotation.
type GuardInfo struct {
	// Mutex names the sibling field whose Lock must be held.
	Mutex string
	// Struct is the declaring type's name, for diagnostics.
	Struct string
	// PkgPath is the declaring package.
	PkgPath string
}

// Program is the full set of packages under analysis plus cross-package
// state the analyzers share.
type Program struct {
	Fset *token.FileSet
	// Packages is the scanned set, sorted by import path. Dependency
	// packages that were loaded only for type information are not listed.
	Packages []*Package
	// Guarded maps an annotated struct field object to its annotation.
	// Populated from every loaded package (scanned or dependency) so
	// cross-package accesses to annotated fields are visible.
	Guarded map[types.Object]GuardInfo
}

// Run executes the analyzers over every scanned package, applies
// //coordvet:ignore suppressions, and appends a finding for every stale or
// malformed ignore. Diagnostics come back sorted by position.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags})
		}
	}
	diags = applyIgnores(prog, analyzers, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
