// Package analysis is Hydra's in-tree static-analysis framework: a
// deliberately small re-implementation of the golang.org/x/tools
// go/analysis surface on top of the standard library's go/ast,
// go/parser and go/types, so the analyzer suite builds with zero
// external dependencies.
//
// The framework exists to machine-check the concurrency disciplines
// the storage manager depends on (DESIGN.md §6). Individual invariants
// live in the sibling packages lockscope, atomicmix and phasebal;
// cmd/hydra-vet drives them over the module.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //hydra:vet:ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects one package via pass and reports findings through
	// pass.Reportf. A non-nil error aborts the whole run (reserved for
	// analyzer bugs, not findings).
	Run func(pass *Pass) error
}

// Pass carries one package's parsed and type-checked state into an
// analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report collects a diagnostic; installed by the driver.
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Run executes each analyzer over each package and returns the
// surviving diagnostics, sorted by position. Findings on lines
// covered by a justified //hydra:vet:ignore directive are dropped;
// directives lacking a justification are themselves reported.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg.Fset, pkg.Files)
		diags = append(diags, sup.malformed...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.report = func(d Diagnostic) {
				if !sup.covers(pkg.Fset, d) {
					diags = append(diags, d)
				}
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// ignoreDirective is the parsed form of
//
//	//hydra:vet:ignore <analyzer>[,<analyzer>...] -- <justification>
//
// A directive suppresses matching findings on its own line and on the
// line directly below it (so it can sit above the flagged statement).
// "all" matches every analyzer. The justification is mandatory: a
// baseline without a recorded reason defeats the point of one.
type ignoreDirective struct {
	file      string
	line      int
	analyzers []string
}

const ignorePrefix = "//hydra:vet:ignore"

type suppressions struct {
	directives []ignoreDirective
	malformed  []Diagnostic
}

func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				names, justification, ok := strings.Cut(rest, "--")
				if !ok || strings.TrimSpace(justification) == "" {
					s.malformed = append(s.malformed, Diagnostic{
						Analyzer: "hydra-vet",
						Pos:      c.Pos(),
						Message:  "ignore directive missing justification: want //hydra:vet:ignore <analyzers> -- <reason>",
					})
					continue
				}
				var list []string
				for _, n := range strings.Split(names, ",") {
					if n = strings.TrimSpace(n); n != "" {
						list = append(list, n)
					}
				}
				if len(list) == 0 {
					s.malformed = append(s.malformed, Diagnostic{
						Analyzer: "hydra-vet",
						Pos:      c.Pos(),
						Message:  "ignore directive names no analyzers",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				s.directives = append(s.directives, ignoreDirective{
					file: pos.Filename, line: pos.Line, analyzers: list,
				})
			}
		}
	}
	return s
}

func (s *suppressions) covers(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	for _, dir := range s.directives {
		if dir.file != pos.Filename {
			continue
		}
		if dir.line != pos.Line && dir.line != pos.Line-1 {
			continue
		}
		for _, name := range dir.analyzers {
			if name == "all" || name == d.Analyzer {
				return true
			}
		}
	}
	return false
}
