package quicksand

// The dead-code gates. They type-check every package of the module and
// of benchmark/ (which imports internal packages but is its own module)
// from source and count each identifier's uses in non-test files.
// TestNoDeadExports fails on an exported name under internal/ that
// nothing uses, or on a func or method that only its own package calls;
// TestNoDeadCode fails on any function or method of the root module,
// exported or not, that only tests use.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// modulePath is the root module's path; benchmark/'s module path,
// repro/benchmark, sits under it, so one mapping covers both.
const modulePath = "repro"

// allowFile lists the names only tests read that the gates keep, one
// "pkg.Name — reason" per line.
const allowFile = "testdata/exports_allow.txt"

// sourcePkg is one type-checked package: its directory relative to the
// repository root, its non-test files, and what go/types made of them.
type sourcePkg struct {
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// sourceTree type-checks the repository's packages from source on
// demand. Import paths under modulePath resolve to directories of the
// tree; everything else is the standard library.
type sourceTree struct {
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*sourcePkg // by directory
}

func (t *sourceTree) Import(path string) (*types.Package, error) {
	return t.ImportFrom(path, "", 0)
}

func (t *sourceTree) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if rel, ok := strings.CutPrefix(path, modulePath); ok && (rel == "" || rel[0] == '/') {
		p, err := t.load(strings.TrimPrefix(rel, "/"))
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return t.std.ImportFrom(path, dir, mode)
}

// load parses and checks the package in dir ("" for the root), once.
func (t *sourceTree) load(dir string) (*sourcePkg, error) {
	if dir == "" {
		dir = "."
	}
	if p, ok := t.pkgs[dir]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", dir)
		}
		return p, nil
	}
	t.pkgs[dir] = nil
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &sourcePkg{dir: dir, info: &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(t.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: t}
	importPath := modulePath
	if dir != "." {
		importPath += "/" + filepath.ToSlash(dir)
	}
	if p.types, err = conf.Check(importPath, t.fset, p.files, p.info); err != nil {
		return nil, err
	}
	t.pkgs[dir] = p
	return p, nil
}

// skipDir reports whether a walk of the tree leaves out the directory
// called name: testdata, and what the go tool ignores.
func skipDir(name string) bool {
	return name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// checkedTree is loadTree's result, shared by the tests that read the
// checked source.
var checkedTree = sync.OnceValues(loadTree)

// loadTree checks every package under the repository root.
func loadTree() (*sourceTree, error) {
	fset := token.NewFileSet()
	t := &sourceTree{fset: fset, pkgs: make(map[string]*sourcePkg),
		std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)}
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		if _, err := t.load(dir); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, err
		}
	}
	return t, nil
}

// export is one exported name declared under internal/. Only a func or
// method used at home alone must be unexported; a var (an Err*
// sentinel), const, type or field may be used only in its package.
type export struct {
	name     string // pkg.Name, pkg.Type.Method or pkg.Type.Field
	pos      token.Position
	callable bool // a func or method
	exempt   bool // satisfies an interface, or is read through a struct tag
	home     bool // used in a non-test file of its own package
	away     bool // used in a non-test file of another package
}

// finding is what the gate says about e, or "" when e passes.
func (e *export) finding() string {
	switch {
	case e.exempt || e.away:
		return ""
	case !e.home:
		return "has no non-test reference: delete it"
	case e.callable:
		return "is used only inside its own package: unexport it"
	}
	return ""
}

// census finds every exported name under internal/ and counts its uses
// across the tree.
func census(t *sourceTree) (map[types.Object]*export, error) {
	ifaces := interfaces(t)
	names := make(map[string]bool)
	out := make(map[types.Object]*export)
	for _, p := range t.pkgs {
		if p == nil || !strings.HasPrefix(filepath.ToSlash(p.dir), "internal/") {
			continue
		}
		pkgName := p.types.Name()
		add := func(id *ast.Ident, name string, callable, exempt bool) error {
			obj := p.info.Defs[id]
			if obj == nil || !id.IsExported() {
				return nil
			}
			name = pkgName + "." + name
			if names[name] {
				return fmt.Errorf("%s: two exported names read %s; the allowlist cannot tell them apart", t.fset.Position(id.Pos()), name)
			}
			names[name] = true
			out[obj] = &export{name: name, pos: t.fset.Position(id.Pos()), callable: callable, exempt: exempt}
			return nil
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						if err := add(d.Name, d.Name.Name, true, false); err != nil {
							return nil, err
						}
						continue
					}
					m := p.info.Defs[d.Name].(*types.Func)
					named := receiver(m)
					if err := add(d.Name, named.Obj().Name()+"."+d.Name.Name, true, satisfies(named, m.Name(), ifaces)); err != nil {
						return nil, err
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if err := add(id, id.Name, false, false); err != nil {
									return nil, err
								}
							}
						case *ast.TypeSpec:
							if err := add(s.Name, s.Name.Name, false, false); err != nil {
								return nil, err
							}
							var err error
							ast.Inspect(s.Type, func(n ast.Node) bool {
								st, ok := n.(*ast.StructType)
								if !ok || err != nil {
									return err == nil
								}
								for _, fl := range st.Fields.List {
									tag := ""
									if fl.Tag != nil {
										tag = strings.Trim(fl.Tag.Value, "`")
									}
									st := reflect.StructTag(tag)
									_, json := st.Lookup("json")
									_, yaml := st.Lookup("yaml")
									for _, id := range fl.Names {
										if err = add(id, s.Name.Name+"."+id.Name, false, json || yaml); err != nil {
											return false
										}
									}
								}
								return true
							})
							if err != nil {
								return nil, err
							}
						}
					}
				}
			}
		}
	}
	for _, p := range t.pkgs {
		if p == nil {
			continue
		}
		for _, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if e := out[obj]; e != nil {
				if obj.Pkg() == p.types {
					e.home = true
				} else {
					e.away = true
				}
			}
		}
	}
	return out, nil
}

// receiver is the named type method m is declared on.
func receiver(m *types.Func) *types.Named {
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	return recv.(*types.Named)
}

// interfaces is every named, non-generic interface with methods that
// the tree declares or reaches in the standard library.
func interfaces(t *sourceTree) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var walk func(pkg *types.Package, own bool)
	walk = func(pkg *types.Package, own bool) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || (!own && !tn.Exported()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp, strings.HasPrefix(imp.Path(), modulePath+"/"))
		}
	}
	for _, p := range t.pkgs {
		if p != nil {
			walk(p.types, true)
		}
	}
	return out
}

// satisfies reports whether method name of T is how T or *T meets one
// of ifaces.
func satisfies(T *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			has = has || it.Method(i).Name() == name
		}
		if has && (types.Implements(T, it) || types.Implements(types.NewPointer(T), it)) {
			return true
		}
	}
	return false
}

// readAllow parses the allowlist into name → reason.
func readAllow(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, ok := strings.Cut(line, " — ")
		if !ok || strings.TrimSpace(reason) == "" || strings.ContainsAny(name, " \t") {
			return nil, fmt.Errorf("%s:%d: want \"pkg.Name — reason\", got %q", path, n, line)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, n, name)
		}
		out[name] = reason
	}
	return out, sc.Err()
}

// deadExports is the gate's whole verdict: one line per finding, with
// allowlisted names excused and allowlist entries that excuse nothing
// reported as stale.
func deadExports(exports map[types.Object]*export, allow map[string]string) []string {
	var out []string
	byName := make(map[string]*export, len(exports))
	for _, e := range exports {
		byName[e.name] = e
		msg := e.finding()
		if _, ok := allow[e.name]; ok || msg == "" {
			continue
		}
		out = append(out, fmt.Sprintf("%s:%d: %s %s", e.pos.Filename, e.pos.Line, e.name, msg))
	}
	for name := range allow {
		if !token.IsExported(lastName(name)) {
			continue // an unexported function's entry: TestNoDeadCode checks it
		}
		switch e := byName[name]; {
		case e == nil:
			out = append(out, fmt.Sprintf("%s: %s is stale: no exported name under internal/ is called that", allowFile, name))
		case e.finding() == "":
			out = append(out, fmt.Sprintf("%s: %s is stale: it has a non-test reference, so the gate passes it without the entry", allowFile, name))
		}
	}
	sort.Strings(out)
	return out
}

// lastName is the final dotted element of an allowlist name.
func lastName(name string) string {
	return name[strings.LastIndex(name, ".")+1:]
}

// TestNoDeadExports: every exported name under internal/ is used by a
// non-test file of another package, or is in the allowlist with the
// test that reads it. Methods that satisfy an interface of the program
// or the standard library, and fields a json or yaml tag names, are
// exempt: their callers are the interface and the codec.
func TestNoDeadExports(t *testing.T) {
	tree, err := checkedTree()
	if err != nil {
		t.Fatal(err)
	}
	exports, err := census(tree)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllow(allowFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range deadExports(exports, allow) {
		t.Error(line)
	}
}

// fn is one function or method declared in a non-test file of the root
// module.
type fn struct {
	name   string // pkg.Name or pkg.Type.Method; a main package goes by its directory
	pos    token.Position
	decl   *ast.FuncDecl
	exempt bool // satisfies an interface
	used   bool // used in a non-test file, outside its own body
}

// funcCensus finds every function and method that a non-test file of
// the root module declares, except main and init, and marks each one a
// non-test file of the tree uses. A function's calls to itself do not
// count.
func funcCensus(t *sourceTree) (map[types.Object]*fn, error) {
	ifaces := interfaces(t)
	names := make(map[string]bool)
	out := make(map[types.Object]*fn)
	for _, p := range t.pkgs {
		if p == nil || !inRootModule(p.dir) {
			continue
		}
		qual := p.types.Name()
		if qual == "main" {
			qual = filepath.ToSlash(p.dir)
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Name.Name == "_" || d.Name.Name == "init" || (d.Recv == nil && d.Name.Name == "main" && p.types.Name() == "main") {
					continue
				}
				obj := p.info.Defs[d.Name].(*types.Func)
				e := &fn{name: qual + "." + d.Name.Name, pos: t.fset.Position(d.Name.Pos()), decl: d}
				if d.Recv != nil {
					named := receiver(obj)
					e.name = qual + "." + named.Obj().Name() + "." + d.Name.Name
					e.exempt = satisfies(named, obj.Name(), ifaces)
				}
				if names[e.name] {
					return nil, fmt.Errorf("%s: two functions read %s; the allowlist cannot tell them apart", e.pos, e.name)
				}
				names[e.name] = true
				out[obj] = e
			}
		}
	}
	for _, p := range t.pkgs {
		if p == nil {
			continue
		}
		for id, obj := range p.info.Uses {
			f, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if e := out[f.Origin()]; e != nil && (id.Pos() < e.decl.Pos() || id.Pos() >= e.decl.End()) {
				e.used = true
			}
		}
	}
	return out, nil
}

// deadCode is TestNoDeadCode's verdict: one line per function nothing
// but a test uses and the allowlist does not excuse, and one per entry
// for an unexported function that excuses nothing.
func deadCode(fns map[types.Object]*fn, allow map[string]string) []string {
	var out []string
	byName := make(map[string]*fn, len(fns))
	for _, e := range fns {
		byName[e.name] = e
		if _, ok := allow[e.name]; ok || e.exempt || e.used {
			continue
		}
		out = append(out, fmt.Sprintf("%s:%d: %s has no non-test use: delete it, or list the test that needs it in %s", e.pos.Filename, e.pos.Line, e.name, allowFile))
	}
	for name := range allow {
		if token.IsExported(lastName(name)) {
			continue // TestNoDeadExports checks exported names' entries
		}
		switch e := byName[name]; {
		case e == nil:
			out = append(out, fmt.Sprintf("%s: %s is stale: no function or method of the root module is called that", allowFile, name))
		case e.exempt || e.used:
			out = append(out, fmt.Sprintf("%s: %s is stale: it has a non-test use, so the gate passes it without the entry", allowFile, name))
		}
	}
	sort.Strings(out)
	return out
}

// TestNoDeadCode: every function and method declared in a non-test
// file of the root module is used by some non-test file — of any
// package, benchmark/ included — or is in the allowlist with the test
// that reads it. Methods that satisfy an interface are exempt, as in
// TestNoDeadExports. It sees what that gate cannot: an unexported
// helper only its own package's tests call. At the parent of the change
// that added it, it failed on eighteen: metrics' TimeSeries.mean, .max
// and .firstCrossing, BucketSeries.total and .rate and
// LogHistogram.countAbove, cluster.defaultGPUConfig, storage's
// Flat.close, sharded's Vector.set and .spilledShards, baseline's
// CoarseApp.stop, gpu's Fleet.attachTelemetry and replication's
// Detector.state, which that change deleted, and core's Ptr.deref,
// .store and .free and sharded's table.close and Queue.close, which it
// allowlisted.
func TestNoDeadCode(t *testing.T) {
	tree, err := checkedTree()
	if err != nil {
		t.Fatal(err)
	}
	fns, err := funcCensus(tree)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllow(allowFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range deadCode(fns, allow) {
		t.Error(line)
	}
}

// TestNoHostClock: no non-test code of the root module reads the host
// clock. A simulated run is a function of its seed, so a reading of
// time.Now or time.Since in it is either dead or a value that differs
// run to run; the benchmark module, which times runs, is its own
// module and not held to this.
func TestNoHostClock(t *testing.T) {
	tree, err := checkedTree()
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, p := range tree.pkgs {
		if p == nil || !inRootModule(p.dir) {
			continue
		}
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && (fn.Name() == "Now" || fn.Name() == "Since") {
				found = append(found, fmt.Sprintf("%s: calls time.%s", tree.fset.Position(id.Pos()), fn.Name()))
			}
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Error(f)
	}
}

// inRootModule reports whether the package in dir belongs to the root
// module: no directory from dir up to the root but the root has a
// go.mod of its own.
func inRootModule(dir string) bool {
	for d := dir; d != "."; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return false
		}
	}
	return true
}
