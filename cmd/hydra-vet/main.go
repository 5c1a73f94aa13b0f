// Command hydra-vet runs Hydra's concurrency-invariant analyzer suite
// (internal/analysis/...) over the module. It loads and type-checks
// packages from source with no dependency on the go command or
// network; -tests adds each package's in-package _test.go files:
//
//	hydra-vet -tests ./...
//
// Exit status is 1 when any diagnostic survives suppression. A finding
// is suppressed in place with a justified directive:
//
//	//hydra:vet:ignore lockscope -- capacity-1 channel, receiver guaranteed
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hydra/internal/analysis"
	"hydra/internal/analysis/atomicmix"
	"hydra/internal/analysis/lockscope"
	"hydra/internal/analysis/phasebal"
)

func main() {
	tests := flag.Bool("tests", false, "also analyze in-package _test.go files")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	ld, err := analysis.NewLoader(".", "")
	if err != nil {
		fail(err)
	}
	ld.IncludeTests = *tests
	pkgs, err := ld.Load(patterns...)
	if err != nil {
		fail(err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{lockscope.Analyzer, atomicmix.Analyzer, phasebal.Analyzer})
	if err != nil {
		fail(err)
	}
	cwd, _ := os.Getwd()
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos) // the loader shares one FileSet across packages
		file := pos.Filename
		if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		fmt.Printf("%s:%d: %s: %s\n", file, pos.Line, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hydra-vet:", err)
	os.Exit(2)
}
