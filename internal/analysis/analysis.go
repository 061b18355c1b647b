// Package analysis is a small, dependency-free stand-in for
// golang.org/x/tools/go/analysis: just enough multichecker plumbing to run
// the project's invariant analyzers (cmd/deltavet lists them) over
// type-checked packages. The module is deliberately
// self-contained (no external deps), so instead of vendoring x/tools this
// package reimplements the three pieces the analyzers need: an Analyzer/Pass
// API, a package loader (load.go) built on `go list -export` plus the
// standard go/types checker, and an analysistest-style fixture harness
// (analysistest/).
//
// The deliberate differences from x/tools are documented where they matter:
// analyzers run per-package but share a Program (program.go) holding the
// whole-load call graph (internal/analysis/callgraph), lazily built
// per-function CFGs (internal/analysis/cfg), and memoized per-analyzer
// program facts — a simpler substitute for x/tools Facts and Requires.
// Suppression — `//deltavet:allow` comments plus the deltavet.allow file —
// is applied by the driver, not the analyzer, so analyzer unit tests always
// see the raw findings.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //deltavet:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports diagnostics for one package via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one package's parse and type information to an analyzer,
// plus the shared Program context for interprocedural queries (call graph,
// CFGs, memoized facts). Prog is always non-nil: single-package runs get a
// one-package program.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Prog      *Program

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over a lone package and returns their findings
// sorted by position. It builds a single-package Program, so interprocedural
// analyzers see only pkg-internal edges; drivers analyzing several packages
// should build one NewProgram and use its Run method instead. Suppression is
// NOT applied here — see Suppress.
func Run(pkg *Package, analyzers ...*Analyzer) ([]Diagnostic, error) {
	return runWith(NewProgram([]*Package{pkg}), pkg, analyzers...)
}

func runWith(prog *Program, pkg *Package, analyzers ...*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Prog:      prog,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
		out = append(out, pass.diags...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// ---- shared type/AST helpers used by the analyzers ----

// IsMutexType reports whether t (after pointer indirection) is sync.Mutex or
// sync.RWMutex.
func IsMutexType(t types.Type) bool {
	name, pkg := namedTypeOf(t)
	return pkg == "sync" && (name == "Mutex" || name == "RWMutex")
}

// namedTypeOf unwraps pointers and returns the type's name and its package
// path ("" for unnamed types).
func namedTypeOf(t types.Type) (name, pkgPath string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	return obj.Name(), pkgPath
}

// NamedType returns the name and package path of t's core named type.
func NamedType(t types.Type) (name, pkgPath string) { return namedTypeOf(t) }

// CalleeOf resolves the called function or method object of a CallExpr, or
// nil for calls through function values, built-ins, and conversions.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fn].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (pkg.Func).
		if f, ok := info.Uses[fn.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// PkgPathOf returns the defining package path of fn ("" for builtins).
func PkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// PathSuffixMatch reports whether pkgPath equals suffix or ends in
// "/"+suffix. Matching by suffix lets test fixtures stand in for real
// project packages (e.g. a fixture at ".../testdata/src/bad/internal/server"
// is treated like "repro/internal/server").
func PathSuffixMatch(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// RecvTypeName returns the receiver type name of method fn ("" for plain
// functions), with any pointer stripped: "(*Store).Put" -> "Store".
func RecvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	name, _ := namedTypeOf(sig.Recv().Type())
	return name
}

// FuncDisplayName renders fn as "Func" or "Recv.Method" (pointer stripped),
// the form the deltavet.allow file uses.
func FuncDisplayName(fn *types.Func) string {
	if r := RecvTypeName(fn); r != "" {
		return r + "." + fn.Name()
	}
	return fn.Name()
}

// ExprString renders a (small) expression for use as a lock identity key,
// e.g. "s.mu" or "shards[i].mu". Index expressions are normalized so the
// same syntactic lock path compares equal.
func ExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return ExprString(e.X) + "[" + ExprString(e.Index) + "]"
	case *ast.ParenExpr:
		return ExprString(e.X)
	case *ast.CallExpr:
		return ExprString(e.Fun) + "()"
	case *ast.BasicLit:
		return e.Value
	case *ast.StarExpr:
		return "*" + ExprString(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + ExprString(e.X)
	default:
		return fmt.Sprintf("<%T>", e)
	}
}
