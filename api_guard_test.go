package racereplay

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// instrumentedAllowlist names the only exported *Instrumented functions
// the module may declare. Each is pinned by a call in the frozen
// benchmark command (cmd/racebench) and is a one-line wrapper over the
// same body as its plain twin.
var instrumentedAllowlist = map[string]bool{
	// cmd/racebench/record.go: runThreeWays records the plain log.
	"record.RunInstrumented": true,
	// cmd/racebench/record.go: runThreeWays records with online detection.
	"record.RunOnlineInstrumented": true,
	// cmd/racebench/layers.go: the per-layer trace times the hb detector.
	"hb.DetectInstrumented": true,
	// cmd/racebench/batch.go: the batch analysis of every workload.
	"core.AnalyzeLogsInstrumented": true,
}

// TestNoInstrumentedTwins keeps every pipeline stage at one entry point:
// the metrics registry travels as a trailing argument or an options
// field (nil is off), never through a parallel *Instrumented function.
func TestNoInstrumentedTwins(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == filepath.Join("cmd", "racebench") || name == "testdata" ||
				(path != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || !strings.HasSuffix(fn.Name.Name, "Instrumented") {
				continue
			}
			if qualified := f.Name.Name + "." + fn.Name.Name; !instrumentedAllowlist[qualified] {
				t.Errorf("%s: exported %s; take the registry as a trailing argument or an options field instead",
					fset.Position(fn.Pos()), qualified)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// modulePath is the root module's path. The benchmark module nested at
// cmd/racebench is "repro/cmd/racebench", so every directory of the
// checkout imports as modulePath followed by its slash-separated path.
const modulePath = "repro"

// callerAllowlist names the exported names that may go without a
// non-test caller, one line each with the reason.
var callerAllowlist = map[string]bool{
	// The other value of the verdict whose PotentiallyHarmful README and examples/refcount compare against.
	"repro.PotentiallyBenign": true,
	// The whole-clock reference that hb.Concurrent's epoch test is checked against (internal/predict/engines_test.go).
	"repro/internal/vclock.VC.Concurrent": true,
	// The generator configuration that fuzzers and reference tests in hb, predict, static and progen draw from.
	"repro/internal/progen.Random": true,
	// The bit-level generator configuration that the same fuzzers and reference tests draw from.
	"repro/internal/progen.BitsConfig": true,
}

// TestExportedNamesHaveCallers keeps the exported API to what the
// program calls. Every exported package-level name of a non-main
// package, and every exported method of an exported type, needs a use
// in a non-test file of the checkout (its own package and the frozen
// benchmark command included) or in an Example function. Error, String
// and Unwrap are set aside, and so is any method that lets its type
// satisfy an interface the checkout's non-test code writes or names,
// since a call through the interface uses the interface's method
// instead.
func TestExportedNamesHaveCallers(t *testing.T) {
	c, checked := loadCheckout(t)
	for _, p := range checked {
		c.examples(p.pkg.Path())
	}

	// The interfaces that non-test code writes or names, by method name.
	ifaces := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	for _, p := range checked {
		for _, tv := range p.info.Types {
			iface, ok := tv.Type.Underlying().(*types.Interface)
			if !ok || !iface.IsMethodSet() || seen[iface] {
				continue
			}
			seen[iface] = true
			for i := 0; i < iface.NumMethods(); i++ {
				name := iface.Method(i).Name()
				ifaces[name] = append(ifaces[name], iface)
			}
		}
	}
	for _, p := range checked {
		if p.pkg.Name() == "main" {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			c.report(t, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !satisfiesInterface(m, ifaces) {
					c.report(t, m)
				}
			}
		}
	}
}

// loadCheckout type-checks the non-test files of every package of the
// checkout, the benchmark command's included, with the standard library
// resolved from source. It skips the test under -short.
func loadCheckout(t *testing.T) (*apiChecker, []*checkedPkg) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	// The guards need types only: without cgo the source importer
	// type-checks net from its pure-Go files instead of running cgo.
	on := build.Default.CgoEnabled
	t.Cleanup(func() { build.Default.CgoEnabled = on })
	build.Default.CgoEnabled = false

	c := &apiChecker{
		fset:   token.NewFileSet(),
		dirs:   map[string]*build.Package{},
		checks: map[string]*checkedPkg{},
		used:   map[string]bool{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil)
	var paths []string
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); name == "testdata" || (dir != "." && strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		path := modulePath
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		paths = append(paths, path)
		c.dirs[path] = bp
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var checked []*checkedPkg
	for _, path := range paths {
		p := c.check(path)
		if p.err != nil {
			t.Fatalf("type-checking %s: %v", path, p.err)
		}
		checked = append(checked, p)
	}
	return c, checked
}

// optionAllowlist names the option fields that may go without a
// non-test writer in another package or without a non-test reader, one
// line each with the reason.
var optionAllowlist = map[string]bool{
	// Ablation A3's switch (the paper's §4.2.1 future work), set by BenchmarkOracleAblation and the vproc oracle tests.
	"repro/internal/vproc.Options.Oracle": true,
	// Read by nothing; the frozen cmd/racebench sets it, and it goes when racebench drops its noMemo argument.
	"repro/internal/classify.Options.NoMemo": true,
}

// TestOptionsHaveCallers keeps every option to one that the program
// sets and reads. Every exported field of an exported struct type of a
// non-main package whose name ends in Options or Config needs a write
// in a non-test file of another package (a composite-literal key or an
// assignment through a selector; the frozen benchmark command and the
// examples count) and a read in a non-test file. A field that only its
// own package or only tests set is a constant; one that nothing reads
// is dead.
func TestOptionsHaveCallers(t *testing.T) {
	c, checked := loadCheckout(t)
	written := map[*types.Var]bool{} // set from outside the field's package
	read := map[*types.Var]bool{}
	for _, p := range checked {
		writes := map[*ast.Ident]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								writes[id] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							writes[sel.Sel] = true
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := n.X.(*ast.SelectorExpr); ok {
						writes[sel.Sel] = true
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			v, ok := obj.(*types.Var)
			switch {
			case !ok || !v.IsField():
			case !writes[id]:
				read[v] = true
			case v.Pkg() != p.pkg:
				written[v] = true
			}
		}
	}

	for _, p := range checked {
		if p.pkg.Name() == "main" {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() ||
				!(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				key := p.pkg.Path() + "." + name + "." + f.Name()
				if !f.Exported() || optionAllowlist[key] {
					continue
				}
				if !written[f] {
					t.Errorf("%s: option %s is set by no non-test code outside its package; make it a constant, give it a caller, or allowlist it with the reason",
						c.fset.Position(f.Pos()), key)
				}
				if !read[f] {
					t.Errorf("%s: option %s is read by no non-test code; delete it, or allowlist it with the reason",
						c.fset.Position(f.Pos()), key)
				}
			}
		}
	}
}

// apiChecker type-checks each package of the checkout once, resolving
// the standard library from source, and gathers the names that non-test
// code and Example functions use.
type apiChecker struct {
	fset   *token.FileSet
	std    types.Importer
	dirs   map[string]*build.Package // the checkout's packages, by import path
	checks map[string]*checkedPkg    // by import path
	used   map[string]bool           // by useKey
}

type checkedPkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
	err   error
}

// Import resolves the checkout's packages from their directories and the
// rest from the standard library's source.
func (c *apiChecker) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return c.std.Import(path)
	}
	p := c.check(path)
	return p.pkg, p.err
}

// check type-checks the non-test files of the package at path and
// records every package-level name and method they use.
func (c *apiChecker) check(path string) *checkedPkg {
	if p := c.checks[path]; p != nil {
		return p
	}
	p := &checkedPkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	c.checks[path] = p
	bp := c.dirs[path]
	if bp == nil {
		p.err = fmt.Errorf("no package %s in the checkout", path)
		return p
	}
	p.files, p.err = c.parse(bp.Dir, bp.GoFiles)
	if p.err != nil {
		return p
	}
	conf := types.Config{Importer: c}
	p.pkg, p.err = conf.Check(path, c.fset, p.files, p.info)
	for _, obj := range p.info.Uses {
		c.used[useKey(obj)] = true
	}
	return p
}

func (c *apiChecker) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// examples records the names that the Example functions in the test
// files of the package at path use. The test files holding an example
// are type-checked as one package, in-package ones with the package's
// non-test files; errors from helpers in other test files are ignored,
// since only the examples' own uses count.
func (c *apiChecker) examples(path string) {
	bp := c.dirs[path]
	for _, xtest := range []bool{false, true} {
		names := bp.TestGoFiles
		if xtest {
			names, path = bp.XTestGoFiles, path+"_test"
		}
		files, err := c.parse(bp.Dir, names)
		if err != nil {
			continue
		}
		var examples []*ast.FuncDecl
		for _, f := range files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
					examples = append(examples, fn)
				}
			}
		}
		if len(examples) == 0 {
			continue
		}
		if !xtest {
			base, err := c.parse(bp.Dir, bp.GoFiles)
			if err != nil {
				continue
			}
			files = append(base, files...)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: c, Error: func(error) {}}
		conf.Check(path, c.fset, files, info)
		for _, fn := range examples {
			ast.Inspect(fn, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					c.used[useKey(info.Uses[id])] = true
				}
				return true
			})
		}
	}
}

// report fails the test on obj when nothing outside tests uses it.
func (c *apiChecker) report(t *testing.T, obj types.Object) {
	key := useKey(obj)
	if c.used[key] || callerAllowlist[key] {
		return
	}
	t.Errorf("%s: exported %s has no caller outside tests; delete it, give it a caller, or allowlist it with the reason",
		c.fset.Position(obj.Pos()), key)
}

// useKey names a package-level object as "path.Name" and a method as
// "path.Type.Method", through the generic origin, so that uses from
// separately checked test packages match; other objects map to "".
func useKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			named, ok := rt.(*types.Named)
			if !ok {
				return ""
			}
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// satisfiesInterface reports whether m is Error, String or Unwrap, or
// lets its receiver's type, or a pointer to it, satisfy one of ifaces
// that declares a method of m's name.
func satisfiesInterface(m *types.Func, ifaces map[string][]*types.Interface) bool {
	switch m.Name() {
	case "Error", "String", "Unwrap":
		return true
	}
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, iface := range ifaces[m.Name()] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}
