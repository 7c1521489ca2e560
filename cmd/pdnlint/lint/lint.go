// Package lint is the engine behind pdnlint, the project's static-analysis
// suite. It loads the module's packages with full type information using
// only the standard library (go/parser + go/types with a source importer,
// so no external dependency is needed), runs a set of project-specific
// analyzers over them, and filters the findings through //pdnlint:ignore
// escape-hatch directives.
//
// The analyzers enforce the solver's and daemon's safety contracts — the
// typed-error taxonomy of internal/simerr, context cancellation through
// long-running loops, tolerance-based floating-point comparison, auditable
// tolerance constants, partitioned writes in parallel fills, lock-holding
// discipline and acquisition order, goroutine lifecycle accounting,
// checkpoint durability routing, allocation-free //pdn:hot kernels, and no
// dead API. See the Analyzers variable for the roster and DESIGN.md
// §5e/§5j for the rationale of each.
//
// Analyzers run per package; one whose contract spans packages (deadapi)
// reads the rest of the module through Package.Loaded.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// RawFinding is what an analyzer reports: a position in the package's file
// set and a message. The engine resolves it to a Finding, applying ignore
// directives.
type RawFinding struct {
	Pos     token.Pos
	Message string
}

// Analyzer is one static check. Run inspects a fully type-checked package
// and reports findings; it must not mutate the package.
type Analyzer struct {
	Name string // short lowercase identifier, used in ignore directives
	Doc  string // one-line description of the enforced contract
	Run  func(p *Package) []RawFinding
}

// Analyzers is the full pdnlint roster, in reporting order. Everything —
// the CLI, `make lint`, the SARIF rules table, TestWholeModuleIsClean —
// derives its analyzer set from this variable, so adding an analyzer here
// is the whole registration.
var Analyzers = []*Analyzer{Errwrap, Ctxflow, Floateq, Magictol, Paraloop, Lockhold, Goleak, Durable, Hotalloc, Deadapi}

// Finding is a resolved diagnostic, ready for text or JSON output. File is
// relative to the module root when the engine can make it so.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Package is a parsed and type-checked package plus the metadata the
// analyzers and the directive filter need.
type Package struct {
	Path  string // import path ("pdnsim/internal/mat")
	Dir   string // directory the files were loaded from
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	directives []directive
	loader     *Loader // nil for a Package not built by a Loader
}

// Loaded returns every package type-checked by the loader that built p,
// sorted by import path — the module-wide view for an analyzer whose
// contract spans packages (deadapi counts uses from all of them, even when
// only a subset is analyzed). A Package built by hand sees only itself.
func (p *Package) Loaded() []*Package {
	if p.loader == nil {
		return []*Package{p}
	}
	out := make([]*Package, 0, len(p.loader.pkgs))
	for _, q := range p.loader.pkgs {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// directive is one parsed //pdnlint:ignore comment. It suppresses findings
// of one analyzer on the directive's own line and the following line, or —
// when it appears in a function's doc comment — across the whole function.
type directive struct {
	analyzer string
	reason   string
	file     string
	line     int // line the directive itself is on
	from, to int // suppressed line range, inclusive
}

// ignorePrefix starts every escape-hatch comment. The full form is
//
//	//pdnlint:ignore <analyzer> <reason>
//
// A missing reason is itself a finding: the whole point of the directive is
// an auditable record of why the contract is waived at that site.
const ignorePrefix = "//pdnlint:ignore"

// scanDirectives parses every ignore directive in the package and computes
// its suppression range.
func (p *Package) scanDirectives() {
	for _, f := range p.Files {
		// Function doc ranges: a directive inside a doc comment covers the
		// whole declaration.
		type span struct{ docFrom, docTo, from, to int }
		var funcSpans []span
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			funcSpans = append(funcSpans, span{
				docFrom: p.Fset.Position(fd.Doc.Pos()).Line,
				docTo:   p.Fset.Position(fd.Doc.End()).Line,
				from:    p.Fset.Position(fd.Pos()).Line,
				to:      p.Fset.Position(fd.End()).Line,
			})
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				// A further "//" ends the directive (it starts an ordinary
				// trailing remark, e.g. the test harness's want patterns).
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = rest[:i]
				}
				fields := strings.Fields(rest)
				d := directive{file: pos.Filename, line: pos.Line, from: pos.Line, to: pos.Line + 1}
				if len(fields) > 0 {
					d.analyzer = fields[0]
				}
				if len(fields) > 1 {
					d.reason = strings.Join(fields[1:], " ")
				}
				for _, s := range funcSpans {
					if pos.Line >= s.docFrom && pos.Line <= s.docTo {
						d.from, d.to = s.from, s.to
						break
					}
				}
				p.directives = append(p.directives, d)
			}
		}
	}
}

// suppressed reports whether a finding of the named analyzer at pos is
// covered by a documented ignore directive. Undocumented directives (no
// reason) never suppress: they are themselves findings.
func (p *Package) suppressed(analyzer string, pos token.Position) bool {
	for _, d := range p.directives {
		if d.analyzer == analyzer && d.reason != "" &&
			d.file == pos.Filename && pos.Line >= d.from && pos.Line <= d.to {
			return true
		}
	}
	return false
}

// Run executes the analyzers over the packages, resolves positions, applies
// ignore directives, validates the directives themselves, and returns the
// surviving findings sorted by file, line and analyzer. trimPrefix, when
// non-empty, is stripped from file names (pass the module root for
// repo-relative paths).
func Run(pkgs []*Package, analyzers []*Analyzer, trimPrefix string) []Finding {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Finding
	rel := func(name string) string {
		if trimPrefix != "" {
			return strings.TrimPrefix(name, strings.TrimSuffix(trimPrefix, "/")+"/")
		}
		return name
	}
	for _, p := range pkgs {
		for _, a := range analyzers {
			for _, rf := range a.Run(p) {
				pos := p.Fset.Position(rf.Pos)
				if p.suppressed(a.Name, pos) {
					continue
				}
				out = append(out, Finding{
					File: rel(pos.Filename), Line: pos.Line, Col: pos.Column,
					Analyzer: a.Name, Message: rf.Message,
				})
			}
		}
		// Directive hygiene: every ignore needs a known analyzer and a
		// reason. These findings cannot themselves be ignored.
		for _, d := range p.directives {
			switch {
			case !known[d.analyzer]:
				out = append(out, Finding{
					File: rel(d.file), Line: d.line, Col: 1, Analyzer: "pdnlint",
					Message: fmt.Sprintf("ignore directive names unknown analyzer %q", d.analyzer),
				})
			case d.reason == "":
				out = append(out, Finding{
					File: rel(d.file), Line: d.line, Col: 1, Analyzer: "pdnlint",
					Message: "undocumented ignore: write //pdnlint:ignore <analyzer> <reason>",
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// calleeFunc resolves the function or method a call expression invokes,
// through any parentheses; nil when the callee is not a declared function
// (function-typed variables, conversions, built-ins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
