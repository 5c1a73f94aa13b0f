package invariant

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// plainMutexes is every sync.Mutex and sync.RWMutex outside this
// package's ranked types — a struct field or a package variable of
// non-test code — with the reason it is not a tier of the latch
// hierarchy. Neither the rank check, the per-tier acquisition profile
// nor a census of critical sections sees these locks, so each one must
// say why it can stay plain.
var plainMutexes = map[string]string{
	"buffer.MemStore.mu":       "the in-memory page store of tests and CPU-bound experiments; a file-backed engine never takes it",
	"dora.regMu":               "the process-global registry of DORA engines the metrics endpoint aggregates; only New and Close take it",
	"lock.wfStripe.mu":         "one of 64 stripes of the waits-for graph; only a lock request that waits enters it",
	"obs.SlowReservoir.mu":     "the slow-transaction reservoir; only a transaction slower than the window's admission bound enters it",
	"server.FlightRecorder.mu": "the stall flight recorder's incident ring; only a recorded incident or a read of the ring enters it",
	"server.Server.mu":         "the listener and the connection registry: accept, connection close and shutdown, never a request",
	"staged.Engine.mu":         "the staged engine's per-table scanner registry: query admission, not row traffic",
	"sync2.HybridLock.mu":      "the parking half of the hybrid lock: waiters that outlast the spin budget sleep on its condition variable",
	"wal.Log.flushOnceMu":      "serialises flushOnce between the flusher and Close and guards the waiters a flush wakes: one holder per flush, never an insert; a waiter takes it only on a dead log",
	"wal.MemDevice.mu":         "the in-memory log device of tests and CPU-bound experiments; a file-backed engine never takes it",
}

// TestEveryPlainMutexHasAReason lists the plain mutexes of the module's
// non-test code and fails on one plainMutexes does not explain, or on
// an entry whose mutex is gone.
func TestEveryPlainMutexHasAReason(t *testing.T) {
	found := map[string]string{} // name -> position
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || name == "invariant" || strings.HasPrefix(name, ".") && path != "../.." {
				return filepath.SkipDir // fixtures, this package, .git and build directories
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, name := range mutexesIn(f) {
			found[name] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range slices.Sorted(maps.Keys(found)) {
		if plainMutexes[name] == "" {
			t.Errorf("%s (%s) is a plain mutex with no reason in plainMutexes: make it a ranked tier, or say why it stays plain", name, found[name])
		}
	}
	for name := range plainMutexes {
		if _, ok := found[name]; !ok {
			t.Errorf("plainMutexes lists %s, which no longer exists", name)
		}
	}
}

// mutexesIn names the sync.Mutex and sync.RWMutex struct fields
// (package.Type.field, through nested struct types) and package
// variables (package.name) that f declares.
func mutexesIn(f *ast.File) []string {
	pkg := f.Name.Name
	var names []string
	var fields func(prefix string, st *ast.StructType)
	fields = func(prefix string, st *ast.StructType) {
		for _, fl := range st.Fields.List {
			if nested, ok := fl.Type.(*ast.StructType); ok {
				for _, n := range fl.Names {
					fields(prefix+"."+n.Name, nested)
				}
				continue
			}
			if !isMutex(fl.Type) {
				continue
			}
			if len(fl.Names) == 0 { // embedded
				names = append(names, prefix+"."+fl.Type.(*ast.SelectorExpr).Sel.Name)
			}
			for _, n := range fl.Names {
				names = append(names, prefix+"."+n.Name)
			}
		}
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if st, ok := s.Type.(*ast.StructType); ok {
					fields(pkg+"."+s.Name.Name, st)
				}
			case *ast.ValueSpec:
				if st, ok := s.Type.(*ast.StructType); ok {
					for _, n := range s.Names {
						fields(pkg+"."+n.Name, st)
					}
				} else if s.Type != nil && isMutex(s.Type) {
					for _, n := range s.Names {
						names = append(names, pkg+"."+n.Name)
					}
				}
			}
		}
	}
	return names
}

// isMutex reports whether typ is sync.Mutex or sync.RWMutex.
func isMutex(typ ast.Expr) bool {
	sel, ok := typ.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "sync" && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex")
}
