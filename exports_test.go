package quicksand

// The dead-code gates. They type-check every package of the module and
// of benchmark/ (which imports internal packages but is its own module)
// from source and count each identifier's uses in non-test files.
// TestNoDeadExports fails on an exported name under internal/ that
// nothing uses, or on a func or method that only its own package calls;
// TestNoDeadCode fails on any function or method of the root module,
// exported or not, that only tests use, on any struct field or
// parameter declared there that only tests read, on any func- or
// pointer-typed field there that only tests set, and on any field of an
// exported Config or Options struct under internal/ that code outside
// its package sets to at most one value.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
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
	root string // the repository root the directories are relative to
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
	bp, err := build.Default.ImportDir(filepath.Join(t.root, dir), 0)
	if err != nil {
		return nil, err
	}
	p := &sourcePkg{dir: dir, info: &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(t.fset, filepath.Join(t.root, dir, name), nil, 0)
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

// checkedTree is loadTree's result for this repository, shared by the
// tests that read the checked source.
var checkedTree = sync.OnceValues(func() (*sourceTree, error) { return loadTree(".") })

// loadTree checks every package under root.
func loadTree(root string) (*sourceTree, error) {
	fset := token.NewFileSet()
	t := &sourceTree{root: root, fset: fset, pkgs: make(map[string]*sourcePkg),
		std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		dirs = append(dirs, rel)
		return err
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

// census finds every exported name under internal/, counts its uses
// across the tree, and gives each its verdict.
func census(t *sourceTree) (gate, error) {
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
									for _, id := range fl.Names {
										if err = add(id, s.Name.Name+"."+id.Name, false, codecTagged(fl)); err != nil {
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
	g := make(gate, len(out))
	for _, e := range out {
		g.add(e.name, e.pos, e.finding())
	}
	return g, nil
}

// codecTagged reports whether a json or yaml tag names fl: the codec
// reads it.
func codecTagged(fl *ast.Field) bool {
	if fl.Tag == nil {
		return false
	}
	tag := reflect.StructTag(strings.Trim(fl.Tag.Value, "`"))
	_, json := tag.Lookup("json")
	_, yaml := tag.Lookup("yaml")
	return json || yaml
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

// gate is one census's verdict on every name it checks.
type gate map[string]verdict

// verdict is where a name is declared and why the gate fails it, ""
// when it passes.
type verdict struct {
	pos     token.Position
	finding string
}

// add records name's verdict. A name declared twice (a field of two
// local types of one name) fails if either declaration does.
func (g gate) add(name string, pos token.Position, finding string) {
	if v, ok := g[name]; ok && (v.finding != "" || finding == "") {
		return
	}
	g[name] = verdict{pos, finding}
}

// unexcused is one line per name g fails that the allowlist does not
// excuse.
func (g gate) unexcused(allow map[string]string) []string {
	var out []string
	for name, v := range g {
		if _, ok := allow[name]; ok || v.finding == "" {
			continue
		}
		out = append(out, fmt.Sprintf("%s:%d: %s %s", v.pos.Filename, v.pos.Line, name, v.finding))
	}
	sort.Strings(out)
	return out
}

// staleEntries is one line per allowlist entry that excuses nothing:
// no gate checks a name of that spelling, or every gate that does
// passes it.
func staleEntries(allow map[string]string, gates ...gate) []string {
	var out []string
	for name := range allow {
		known, needed := false, false
		for _, g := range gates {
			v, ok := g[name]
			known = known || ok
			needed = needed || v.finding != ""
		}
		switch {
		case !known:
			out = append(out, fmt.Sprintf("%s: %s is stale: the gates check no name spelt so", allowFile, name))
		case !needed:
			out = append(out, fmt.Sprintf("%s: %s is stale: it has a non-test reader, so the gates pass it without the entry", allowFile, name))
		}
	}
	sort.Strings(out)
	return out
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
	for _, line := range exports.unexcused(allow) {
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
// the root module declares, except main and init, and fails each one no
// non-test file of the tree uses. A function's calls to itself do not
// count.
func funcCensus(t *sourceTree) (gate, error) {
	ifaces := interfaces(t)
	out := make(map[types.Object]*fn)
	g := make(gate)
	for _, p := range t.pkgs {
		if p == nil || !t.inRootModule(p.dir) {
			continue
		}
		qual := qualifier(p)
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
				if _, dup := g[e.name]; dup {
					return nil, fmt.Errorf("%s: two functions read %s; the allowlist cannot tell them apart", e.pos, e.name)
				}
				g[e.name] = verdict{}
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
	for _, e := range out {
		finding := ""
		if !e.exempt && !e.used {
			finding = "has no non-test use: delete it, or list the test that needs it in " + allowFile
		}
		g[e.name] = verdict{e.pos, finding}
	}
	return g, nil
}

// qualifier is how the gates name p's declarations: by package name, a
// main package by its directory.
func qualifier(p *sourcePkg) string {
	if p.types.Name() == "main" {
		return filepath.ToSlash(p.dir)
	}
	return p.types.Name()
}

// metricsPath is the metrics package, whose recorders write.
const metricsPath = modulePath + "/internal/metrics"

// recorders are the metrics methods, by receiver type and name, that
// only add to the value they are called on: calling one on a field
// writes the field.
var recorders = map[string]bool{
	"Counter.Inc": true, "Counter.Addn": true,
	"Summary.Record": true, "LogHistogram.Record": true,
	"EWMA.Observe": true, "BucketSeries.Add": true, "TimeSeries.Add": true,
}

// state is one struct field or function parameter declared in a
// non-test file of the root module.
type state struct {
	name string // pkg.Owner.field, pkg.Func.param or pkg.Type.Method.param
	pos  token.Position
	read bool // read by a non-test file, or exempt
	hook bool // a func- or pointer-typed field
	set  bool // set by a non-test file, or exempt
}

// stateCensus finds every struct field and function parameter that a
// non-test file of the root module declares, and fails each one no
// non-test file of the tree reads. Writing a field is not reading it:
// the target of an assignment or of ++/--, a composite-literal key,
// x.f = append(x.f, …) and a call of a metrics recorder on it are
// writes, and every other use is a read. A func- or pointer-typed field
// — a hook or a recorder — that no non-test file sets, by assignment,
// composite literal or &x.f, is dead however often it is read: its nil
// checks and calls, and recorder or method calls through it, never run.
// A field is also read when
//   - a json or yaml tag names it;
//   - it is exported and its struct is reachable from a value the tree
//     passes to encoding/json;
//   - its struct is a map or sync.Map key, which compares every field;
//   - fmt walks its struct (one with no String, Error or Format
//     method) in a value the tree passes to a print function.
//
// Embedded fields, _, the parameters of a method that satisfies an
// interface and those of a function used as a value (its signature is
// its user's) are exempt.
func stateCensus(t *sourceTree) gate {
	ifaces := interfaces(t)
	vars := make(map[*types.Var]*state)
	params := make(map[*types.Func][]*state)
	for _, p := range t.pkgs {
		if p == nil || !t.inRootModule(p.dir) {
			continue
		}
		qual := qualifier(p)
		for _, f := range p.files {
			inspect(f, func(n ast.Node, stack []ast.Node) {
				switch n := n.(type) {
				case *ast.StructType:
					owner := qual + "." + ownerName(stack)
					for _, fl := range n.Fields.List {
						for _, id := range fl.Names {
							if id.Name != "_" {
								v := p.info.Defs[id].(*types.Var)
								tagged := codecTagged(fl)
								vars[v] = &state{name: owner + "." + id.Name, pos: t.fset.Position(id.Pos()), read: tagged, hook: isHook(v.Type()), set: tagged}
							}
						}
					}
				case *ast.FuncDecl:
					if n.Body == nil {
						return
					}
					obj := p.info.Defs[n.Name].(*types.Func)
					name, exempt := qual+"."+n.Name.Name, false
					if n.Recv != nil {
						named := receiver(obj)
						name = qual + "." + named.Obj().Name() + "." + n.Name.Name
						exempt = satisfies(named, obj.Name(), ifaces)
					}
					for _, fl := range n.Type.Params.List {
						for _, id := range fl.Names {
							if id.Name != "_" {
								s := &state{name: name + "." + id.Name, pos: t.fset.Position(id.Pos()), read: exempt}
								vars[p.info.Defs[id].(*types.Var)] = s
								params[obj] = append(params[obj], s)
							}
						}
					}
				}
			})
		}
	}
	mark := func(v *types.Var) {
		if s := vars[v.Origin()]; s != nil {
			s.read = true
		}
	}
	markSet := func(v *types.Var) {
		if s := vars[v.Origin()]; s != nil {
			s.set = true
		}
	}
	var keyed func(T types.Type)
	keyed = func(T types.Type) {
		switch u := T.Underlying().(type) {
		case *types.Array:
			keyed(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				mark(u.Field(i))
				keyed(u.Field(i).Type())
			}
		}
	}
	encoded := make(map[types.Type]bool)
	var encode func(T types.Type)
	encode = func(T types.Type) {
		if encoded[T] {
			return
		}
		encoded[T] = true
		switch u := T.Underlying().(type) {
		case *types.Pointer:
			encode(u.Elem())
		case *types.Slice:
			encode(u.Elem())
		case *types.Array:
			encode(u.Elem())
		case *types.Map:
			encode(u.Key())
			encode(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() || f.Embedded() {
					mark(f)
					encode(f.Type())
				}
			}
		}
	}
	printed := make(map[types.Type]bool)
	var show func(T types.Type, top bool)
	show = func(T types.Type, top bool) {
		if printed[T] || formatsItself(T) {
			return
		}
		printed[T] = true
		switch u := T.Underlying().(type) {
		case *types.Pointer:
			if top {
				show(u.Elem(), false)
			}
		case *types.Slice:
			show(u.Elem(), false)
		case *types.Array:
			show(u.Elem(), false)
		case *types.Map:
			show(u.Key(), false)
			show(u.Elem(), false)
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				mark(u.Field(i))
				show(u.Field(i).Type(), false)
			}
		}
	}
	for _, p := range t.pkgs {
		if p == nil {
			continue
		}
		for _, f := range p.files {
			inspect(f, func(n ast.Node, stack []ast.Node) {
				switch n := n.(type) {
				case *ast.Ident:
					switch obj := p.info.Uses[n].(type) {
					case *types.Var:
						if !obj.IsField() || reads(p.info, n, stack) {
							mark(obj)
						}
						if obj.IsField() && sets(n, stack) {
							markSet(obj)
						}
					case *types.Func:
						if !called(n, stack) {
							for _, s := range params[obj.Origin()] {
								s.read = true
							}
						}
					}
				case *ast.CompositeLit: // T{v, …} sets T's fields in order
					T := p.info.TypeOf(n)
					if ptr, ok := T.Underlying().(*types.Pointer); ok { // an elided &T
						T = ptr.Elem()
					}
					if st, ok := T.Underlying().(*types.Struct); ok {
						for i, elt := range n.Elts {
							if _, keyed := elt.(*ast.KeyValueExpr); !keyed {
								markSet(st.Field(i))
							}
						}
					}
				case *ast.CallExpr:
					callee := calleeOf(p.info, n)
					switch {
					case callee == nil || callee.Pkg() == nil:
					case callee.Pkg().Path() == "encoding/json":
						for _, arg := range n.Args {
							encode(p.info.TypeOf(arg))
						}
					case callee.Pkg().Path() == "fmt":
						for _, arg := range n.Args {
							show(p.info.TypeOf(arg), true)
						}
					case callee.Pkg().Path() == "sync" && len(n.Args) > 0 && recvName(callee) == "Map":
						keyed(p.info.TypeOf(n.Args[0]))
					}
				}
			})
		}
		for _, tv := range p.info.Types {
			if tv.Type == nil {
				continue
			}
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				keyed(m.Key())
			}
		}
	}
	g := make(gate)
	for v, s := range vars {
		finding := ""
		switch {
		case s.hook && !s.set:
			finding = "is never set by a non-test file, so nothing reads or calls through it: delete it, or list the test that sets it in " + allowFile
		case s.read:
		case v.IsField():
			finding = "is never read by a non-test file: delete it, or list the test that reads it in " + allowFile
		default:
			finding = "is never read by its function: drop it"
		}
		g.add(s.name, s.pos, finding)
	}
	return g
}

// formatsItself reports whether fmt prints a T by calling its String,
// Error or Format method rather than by walking its fields.
func formatsItself(T types.Type) bool {
	ms := types.NewMethodSet(T)
	return ms.Lookup(nil, "String") != nil || ms.Lookup(nil, "Error") != nil || ms.Lookup(nil, "Format") != nil
}

// inspect calls visit on every node of f with the nodes that enclose
// it, outermost first.
func inspect(f *ast.File, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

// ownerName names the struct type stack encloses: the innermost type
// declaration, else the declaration of the function or variable the
// struct is written in.
func ownerName(stack []ast.Node) string {
	owner := "?"
	for _, n := range stack {
		switch n := n.(type) {
		case *ast.TypeSpec:
			return n.Name.Name
		case *ast.FuncDecl:
			owner = n.Name.Name
		case *ast.ValueSpec:
			owner = n.Names[0].Name
		}
	}
	return owner
}

// reads reports whether the use id of a field, which stack encloses,
// reads it.
func reads(info *types.Info, id *ast.Ident, stack []ast.Node) bool {
	i := len(stack) - 1
	if kv, ok := stack[i].(*ast.KeyValueExpr); ok && kv.Key == id {
		_, lit := stack[i-1].(*ast.CompositeLit)
		return !lit
	}
	sel, ok := stack[i].(*ast.SelectorExpr)
	if !ok || sel.Sel != id {
		return true
	}
	var e ast.Expr = sel
	for i--; i > 0; i-- {
		paren, ok := stack[i].(*ast.ParenExpr)
		if !ok {
			break
		}
		e = paren
	}
	switch n := stack[i].(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if lhs == e {
				return false
			}
		}
	case *ast.IncDecStmt:
		return false
	case *ast.CallExpr: // x.f = append(x.f, …)
		as, ok := stack[i-1].(*ast.AssignStmt)
		if b, isBuiltin := info.Uses[identOf(n.Fun)].(*types.Builtin); !ok || !isBuiltin || b.Name() != "append" || n.Args[0] != e {
			return true
		}
		for j, rhs := range as.Rhs {
			if rhs == n && j < len(as.Lhs) && types.ExprString(as.Lhs[j]) == types.ExprString(sel) {
				return false
			}
		}
	case *ast.SelectorExpr: // x.f.Inc()
		call, ok := stack[i-1].(*ast.CallExpr)
		m, isFunc := info.Uses[n.Sel].(*types.Func)
		return !ok || call.Fun != n || !isFunc || m.Pkg() == nil || m.Pkg().Path() != metricsPath || !recorders[recvName(m)+"."+m.Name()]
	}
	return true
}

// sets reports whether the use id of a field, which stack encloses,
// sets it: the target of an assignment, a composite-literal key, or an
// operand of &, which may set it through the pointer.
func sets(id *ast.Ident, stack []ast.Node) bool {
	i := len(stack) - 1
	if kv, ok := stack[i].(*ast.KeyValueExpr); ok && kv.Key == id {
		_, lit := stack[i-1].(*ast.CompositeLit)
		return lit
	}
	sel, ok := stack[i].(*ast.SelectorExpr)
	if !ok || sel.Sel != id {
		return false
	}
	var e ast.Expr = sel
	for i--; i > 0; i-- {
		paren, ok := stack[i].(*ast.ParenExpr)
		if !ok {
			break
		}
		e = paren
	}
	switch n := stack[i].(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if lhs == e {
				return true
			}
		}
	case *ast.UnaryExpr:
		return n.Op == token.AND
	}
	return false
}

// isHook reports whether a field of type T is a hook or a recorder: a
// func or a pointer.
func isHook(T types.Type) bool {
	switch T.Underlying().(type) {
	case *types.Signature, *types.Pointer:
		return true
	}
	return false
}

// called reports whether the use id of a function, which stack
// encloses, calls it rather than taking its value.
func called(id *ast.Ident, stack []ast.Node) bool {
	var e ast.Node = id
	i := len(stack) - 1
	for ; i > 0; i-- {
		switch n := stack[i].(type) {
		case *ast.SelectorExpr:
			if n.Sel != e {
				return false
			}
		case *ast.IndexExpr: // an instantiation, F[T]
			if n.X != e {
				return false
			}
		case *ast.IndexListExpr:
			if n.X != e {
				return false
			}
		case *ast.ParenExpr:
		default:
			call, ok := n.(*ast.CallExpr)
			return ok && call.Fun == e
		}
		e = stack[i]
	}
	return false
}

// calleeOf is the function or method call calls, or nil.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	f, _ := info.Uses[identOf(call.Fun)].(*types.Func)
	return f
}

// identOf is the name at the end of a call's function expression.
func identOf(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// recvName is the name of the type method m is declared on, "" for a
// function.
func recvName(m *types.Func) string {
	if m.Type().(*types.Signature).Recv() == nil {
		return ""
	}
	return receiver(m).Obj().Name()
}

// option is one field of an exported Config or Options struct under
// internal/, with the values that code outside its package writes to
// it.
type option struct {
	name   string // pkg.Type.Field
	pos    token.Position
	values []constant.Value // each distinct constant written; nil is the zero of a non-basic type
	many   bool             // a non-constant write
}

// write records that e is written to o.
func (o *option) write(info *types.Info, e ast.Expr) {
	switch tv := info.Types[e]; {
	case tv.IsNil():
		o.add(nil)
	case tv.Value != nil:
		o.add(tv.Value)
	default:
		o.many = true
	}
}

// writeZero records that the zero value of T is written to o.
func (o *option) writeZero(T types.Type) {
	b, ok := T.Underlying().(*types.Basic)
	switch {
	case !ok:
		o.add(nil)
	case b.Info()&types.IsBoolean != 0:
		o.add(constant.MakeBool(false))
	case b.Info()&types.IsString != 0:
		o.add(constant.MakeString(""))
	default:
		o.add(constant.MakeInt64(0))
	}
}

func (o *option) add(v constant.Value) {
	for _, w := range o.values {
		if (v == nil) == (w == nil) && (v == nil || constant.Compare(v, token.EQL, w)) {
			return
		}
	}
	o.values = append(o.values, v)
}

// finding is what the gate says about o, or "" when o passes.
func (o *option) finding() string {
	switch {
	case o.many || len(o.values) > 1:
		return ""
	case len(o.values) == 0:
		return "is set by no non-test code outside its package: make it a constant where it is read"
	case o.values[0] == nil:
		return "is set outside its package only to its zero value: make it a constant where it is read"
	}
	return "is set outside its package only to " + o.values[0].ExactString() + ": make it a constant where it is read"
}

// optionCensus finds every field of an exported struct type under
// internal/ whose name ends in Config or Options, and fails each one
// that non-test code outside its package — the root module, examples/
// and benchmark/ — sets to at most one value: with one value in use, a
// setting is a constant. An assignment and a composite-literal key
// write a field; a keyed literal that omits it, or an empty one, writes
// its zero value. A non-constant value, an op-assign and ++/-- count as
// many values. The declaring package's own writes — its defaults and
// clamps — do not count.
func optionCensus(t *sourceTree) gate {
	opts := make(map[*types.Var]*option)
	for _, p := range t.pkgs {
		if p == nil || !strings.HasPrefix(filepath.ToSlash(p.dir), "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				opts[f] = &option{name: p.types.Name() + "." + name + "." + f.Name(), pos: t.fset.Position(f.Pos())}
			}
		}
	}
	for _, p := range t.pkgs {
		if p == nil {
			continue
		}
		away := func(v types.Object) *option {
			f, ok := v.(*types.Var)
			if !ok || f.Pkg() == p.types {
				return nil
			}
			return opts[f.Origin()]
		}
		target := func(lhs ast.Expr) *option {
			if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
				return away(p.info.Uses[sel.Sel])
			}
			return nil
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					T := p.info.TypeOf(n)
					if ptr, ok := T.Underlying().(*types.Pointer); ok {
						T = ptr.Elem()
					}
					st, ok := T.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					set := make(map[*types.Var]ast.Expr)
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							set[p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)] = kv.Value
						} else {
							set[st.Field(i)] = elt
						}
					}
					for i := 0; i < st.NumFields(); i++ {
						fv := st.Field(i)
						if o := away(fv); o != nil {
							if e, ok := set[fv]; ok {
								o.write(p.info, e)
							} else {
								o.writeZero(fv.Type())
							}
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if o := target(lhs); o != nil {
							if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
								o.write(p.info, n.Rhs[i])
							} else {
								o.many = true
							}
						}
					}
				case *ast.IncDecStmt:
					if o := target(n.X); o != nil {
						o.many = true
					}
				}
				return true
			})
		}
	}
	g := make(gate, len(opts))
	for _, o := range opts {
		g.add(o.name, o.pos, o.finding())
	}
	return g
}

// TestNoDeadCode: every function and method declared in a non-test
// file of the root module is used by some non-test file — of any
// package, benchmark/ included — and every struct field and parameter
// declared there is read by one, or the name is in the allowlist with
// the test that reads it. Methods that satisfy an interface are exempt,
// as in TestNoDeadExports; stateCensus says what reads a field. Every
// option — a field of an exported Config or Options struct under
// internal/ — is set to two values or more by callers outside its
// package, or is allowlisted with what pins it; optionCensus says what
// sets one. It also fails an allowlist entry that excuses nothing, for
// all four censuses. It sees what TestNoDeadExports cannot: an unexported helper
// only its own package's tests call, and state that is written and
// never read.
//
// At the parent of the change that added the function census it failed
// on eighteen: metrics' TimeSeries.mean, .max and .firstCrossing,
// BucketSeries.total and .rate and LogHistogram.countAbove,
// cluster.defaultGPUConfig, storage's Flat.close, sharded's Vector.set
// and .spilledShards, baseline's CoarseApp.stop, gpu's
// Fleet.attachTelemetry and replication's Detector.state, which that
// change deleted, and core's Ptr.deref, .store and .free and sharded's
// table.close and Queue.close, which it allowlisted.
//
// At the parent of the change that added fields and parameters it
// failed on 59 fields and 4 parameters. That change deleted the 13
// fields no file reads, tests included — proclet's Proclet.residentAt
// and Ctx.From, workload's Batch.Seq and .Bytes and GPUPool.Starved,
// experiments' fig2Outcome.evacuations and .memSplit and fig3Cfg.lowWater
// and .highWater, sharded.VecIter.Refetches, storage.Flat.sys, and
// metrics' Histogram.Name and BucketSeries.Name — and dropped core's
// Pool.Grow and .Shrink p and experiments.runStatic's cfg. It
// allowlisted the other 46 fields, each read by a test, mostly the
// counters the reference-loop tests compare, and load's
// Injector.AddTenant name, which benchmark/ passes.
//
// At the parent of the change that added options it failed on 31
// fields. That change made 19 of them unexported constants of the
// package that reads them — all nine of proclet.Config, core.Config's
// Net, Proclet and GlobalPeriod, gpu.Config's Hysteresis and
// MinSamples, gpu.CheckpointConfig.Home, slo.SampleConfig.HeadEvery and
// storage.DeviceConfig's ReadLatency, WriteLatency and Bandwidth — and
// allowlisted the 12 that benchmark/probes.go pins: replication.Config's
// six, simnet.Config's five and slo.Config.Machine.
//
// At the parent of the change that added the rule for func- and
// pointer-typed fields it failed on four, each nil-checked and called
// or recorded into but set by no non-test file, which that change
// deleted: cluster.Machine.MemSeries, fault.Injector.HookRestart,
// slo.Monitor.OnWindow and replication.Detector.OnSuspect (set only by
// a test, which now reads the detector's log).
func TestNoDeadCode(t *testing.T) {
	tree, err := checkedTree()
	if err != nil {
		t.Fatal(err)
	}
	exports, err := census(tree)
	if err != nil {
		t.Fatal(err)
	}
	fns, err := funcCensus(tree)
	if err != nil {
		t.Fatal(err)
	}
	vars := stateCensus(tree)
	opts := optionCensus(tree)
	allow, err := readAllow(allowFile)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, g := range []gate{fns, vars, opts} {
		lines = append(lines, g.unexcused(allow)...)
	}
	for _, line := range append(lines, staleEntries(allow, exports, fns, vars, opts)...) {
		t.Error(line)
	}
}

// emitfTakes is what obs.Log.Emitf renders exactly: for each argument
// type it stores, the verbs that take it ("f" stands for a %.Nf).
var emitfTakes = map[string]string{
	"int": "dv", "int32": "dv", "int64": "dv", "uint32": "dv", "uint64": "dv",
	"float64": "fv", "string": "sv", "time.Duration": "sv", "repro/internal/sim.Time": "sv",
}

// TestEmitfArgs checks every obs.Log.Emitf call against the verbs and
// argument types it renders exactly; go vet's printf check does not,
// since Emitf is no printf wrapper. Emitf stores each argument as the
// widest type of its tag and fmt renders that on read, so this is the
// only verb check, and it keeps the round trip exact: under these verbs
// an int32 prints as the int64 it is stored as. The format must be a
// constant, each verb one of %d %s %v %.Nf %%, the arguments one a verb,
// and each argument's type one its verb takes: a named type (proclet.ID)
// or an interface (error) is converted at the call.
func TestEmitfArgs(t *testing.T) {
	tree, err := checkedTree()
	if err != nil {
		t.Fatal(err)
	}
	const formatArg = 5 // Emitf(at, kind, subject, from, to, format, args...)
	calls := 0
	for _, p := range tree.pkgs {
		if p == nil {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeOf(p.info, call)
				if fn == nil || fn.Name() != "Emitf" || fn.Pkg().Path() != "repro/internal/obs" || recvName(fn) != "Log" {
					return true
				}
				calls++
				at := tree.fset.Position(call.Pos())
				if call.Ellipsis.IsValid() {
					t.Errorf("%s: Emitf forwards a slice; its arguments cannot be checked", at)
					return true
				}
				format := p.info.Types[call.Args[formatArg]].Value
				if format == nil || format.Kind() != constant.String {
					t.Errorf("%s: Emitf's format is not a constant", at)
					return true
				}
				verbs, err := emitfVerbs(constant.StringVal(format))
				args := call.Args[formatArg+1:]
				switch {
				case err != nil:
					t.Errorf("%s: %v", at, err)
				case len(verbs) != len(args):
					t.Errorf("%s: %d verbs, %d arguments", at, len(verbs), len(args))
				default:
					for i, arg := range args {
						typ := types.TypeString(p.info.Types[arg].Type, nil)
						if !strings.Contains(emitfTakes[typ], verbs[i]) {
							t.Errorf("%s: argument %d is a %s, which Emitf does not render under %%%s", at, i+1, typ, verbs[i])
						}
					}
				}
				return true
			})
		}
	}
	if calls == 0 {
		t.Error("found no obs.Log.Emitf call")
	}
}

// emitfVerbs lists a format's verbs, a %.Nf as "f"; %% is no verb.
func emitfVerbs(format string) ([]string, error) {
	var verbs []string
	for {
		i := strings.IndexByte(format, '%')
		if i < 0 {
			return verbs, nil
		}
		format = format[i+1:]
		prec := strings.HasPrefix(format, ".")
		if prec {
			format = strings.TrimLeft(format[1:], "0123456789")
		}
		switch {
		case format == "":
			return nil, fmt.Errorf("format ends inside a verb")
		case format[0] == 'f' && prec, strings.IndexByte("dsv", format[0]) >= 0 && !prec:
			verbs = append(verbs, format[:1])
		case format[0] == '%' && !prec:
		default:
			return nil, fmt.Errorf("verb %%%s is not one Emitf renders", format[:1])
		}
		format = format[1:]
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
		if p == nil || !tree.inRootModule(p.dir) {
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
func (t *sourceTree) inRootModule(dir string) bool {
	for d := dir; d != "."; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(t.root, d, "go.mod")); err == nil {
			return false
		}
	}
	return true
}

// TestStateCensusClassifies holds stateCensus to its read/write rule,
// one case a row: each row is a package of its own, type-checked from
// source, and names the fields and parameters the gate must pass
// (read) and fail (unread). The traps — a map key, a sync.Map key, an
// untagged field marshalled through a tagged one — are written as
// their real counterparts are, and the real ones are checked at the
// end.
func TestStateCensusClassifies(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	const head = "package x\n\nimport (\n\t\"encoding/json\"\n\t\"fmt\"\n\t\"io\"\n\t\"sync\"\n\n\t\"repro/internal/metrics\"\n)\n\nvar (\n\t_ = json.Marshal\n\t_ = fmt.Sprint\n\t_ io.Writer\n\t_ sync.Map\n\t_ metrics.Counter\n)\n\n"
	recorder := func(typ, call string) string {
		return "type T struct{ f *metrics." + typ + " }\n\nfunc F(t *T) { t.f." + call + " }\n"
	}
	rows := []struct {
		name string
		src  string
		want map[string]bool // name → read
	}{
		{"plain read", "type T struct{ f int }\n\nfunc F(t *T) int { return t.f }\n", map[string]bool{"x.T.f": true, "x.F.t": true}},
		{"assignment", "type T struct{ f int }\n\nfunc F(t *T) { t.f = 1 }\n", map[string]bool{"x.T.f": false}},
		{"parenthesised assignment", "type T struct{ f int }\n\nfunc F(t *T) { (t.f) = 1 }\n", map[string]bool{"x.T.f": false}},
		{"op-assign", "type T struct{ f int }\n\nfunc F(t *T) { t.f += 2 }\n", map[string]bool{"x.T.f": false}},
		{"increment", "type T struct{ f int }\n\nfunc F(t *T) { t.f++ }\n", map[string]bool{"x.T.f": false}},
		{"composite-literal key", "type T struct{ f int }\n\nfunc F() *T { return &T{f: 1} }\n", map[string]bool{"x.T.f": false}},
		{"append to itself", "type T struct{ f []int }\n\nfunc F(t *T) { t.f = append(t.f, 1) }\n", map[string]bool{"x.T.f": false}},
		{"append to another", "type T struct{ f, g []int }\n\nfunc F(t *T) { t.g = append(t.f, 1) }\n", map[string]bool{"x.T.f": true, "x.T.g": false}},
		{"Counter.Inc", recorder("Counter", "Inc()"), map[string]bool{"x.T.f": false}},
		{"Counter.Addn", recorder("Counter", "Addn(2)"), map[string]bool{"x.T.f": false}},
		{"Summary.Record", recorder("Summary", "Record(1)"), map[string]bool{"x.T.f": false}},
		{"LogHistogram.Record", recorder("LogHistogram", "Record(1)"), map[string]bool{"x.T.f": false}},
		{"EWMA.Observe", recorder("EWMA", "Observe(1)"), map[string]bool{"x.T.f": false}},
		{"BucketSeries.Add", recorder("BucketSeries", "Add(0, 1)"), map[string]bool{"x.T.f": false}},
		{"TimeSeries.Add", recorder("TimeSeries", "Add(0, 1)"), map[string]bool{"x.T.f": false}},
		{"any other method", recorder("Counter", "Value()") + "\nfunc G() *T { return &T{f: new(metrics.Counter)} }\n", map[string]bool{"x.T.f": true}},
		{"hook never set (fault.Injector.HookRestart)", "type T struct{ f func(int) }\n\nfunc F(t *T) {\n\tif t.f != nil {\n\t\tt.f(1)\n\t}\n}\n", map[string]bool{"x.T.f": false}},
		{"recorder never set (cluster.Machine.MemSeries)", "type T struct{ f *metrics.TimeSeries }\n\nfunc F(t *T) {\n\tif t.f != nil {\n\t\tt.f.Add(0, 1)\n\t}\n}\n", map[string]bool{"x.T.f": false}},
		{"method call through a pointer never set", recorder("Counter", "Value()"), map[string]bool{"x.T.f": false}},
		{"hook set by assignment", "type T struct{ f func() }\n\nfunc F(t *T) {\n\tt.f = func() {}\n\tt.f()\n}\n", map[string]bool{"x.T.f": true}},
		{"hook set by a composite-literal key", "type T struct{ f func() }\n\nfunc F() { (&T{f: func() {}}).f() }\n", map[string]bool{"x.T.f": true}},
		{"hook set by a positional composite literal", "type T struct {\n\tn int\n\tf func() int\n}\n\nfunc F() int { return T{1, func() int { return 2 }}.f() + T{}.n }\n", map[string]bool{"x.T.f": true, "x.T.n": true}},
		{"hook set by an elided &T literal", "type T struct{ f func() }\n\nvar ts = []*T{{func() {}}}\n\nfunc F() { ts[0].f() }\n", map[string]bool{"x.T.f": true}},
		{"pointer set through its address", "type T struct{ f *int }\n\nfunc F(t *T, v *int) int {\n\tp := &t.f\n\t*p = v\n\treturn *t.f\n}\n", map[string]bool{"x.T.f": true}},
		{"address taken", "type T struct{ f int }\n\nfunc F(t *T) *int { return &t.f }\n", map[string]bool{"x.T.f": true}},
		{"json tag", "type T struct {\n\tf int `json:\"f\"`\n}\n\nfunc F(t *T) { t.f = 1 }\n", map[string]bool{"x.T.f": true}},
		{"yaml tag", "type T struct {\n\tf int `yaml:\"f\"`\n}\n\nfunc F(t *T) { t.f = 1 }\n", map[string]bool{"x.T.f": true}},
		{"marshalled through a tagged field (slo.Incident)",
			"type Incident struct {\n\tKind    string\n\tCauseAt int64\n\tspan    int\n}\n\ntype jsonReport struct {\n\tIncidents []Incident `json:\"incidents\"`\n}\n\nfunc F(in []Incident) ([]byte, error) {\n\tin = append(in, Incident{Kind: \"k\", CauseAt: 1, span: 2})\n\treturn json.MarshalIndent(jsonReport{Incidents: in}, \"\", \" \")\n}\n",
			map[string]bool{"x.Incident.Kind": true, "x.Incident.CauseAt": true, "x.Incident.span": false}},
		{"encoded through a pointer and a map",
			"type Rec struct{ A map[string]*Val }\n\ntype Val struct{ N, n int }\n\nfunc F(w io.Writer) error {\n\treturn json.NewEncoder(w).Encode(&Rec{A: map[string]*Val{\"v\": {N: 1, n: 2}}})\n}\n",
			map[string]bool{"x.Rec.A": true, "x.Val.N": true, "x.Val.n": false}},
		{"map key (simnet.linkKey)", "type linkKey struct {\n\tfrom, to int\n}\n\nvar links = map[linkKey]int{}\n\nfunc F(a, b int) { links[linkKey{a, b}]++ }\n", map[string]bool{"x.linkKey.from": true, "x.linkKey.to": true}},
		{"sync.Map key (load.zipfKey)", "type zipfKey struct {\n\tn     uint64\n\ttheta float64\n}\n\nvar memo sync.Map\n\nfunc F(n uint64, theta float64) { memo.Store(zipfKey{n: n, theta: theta}, 1) }\n", map[string]bool{"x.zipfKey.n": true, "x.zipfKey.theta": true}},
		{"printed by fmt", "type S struct{ a int }\n\ntype P struct{ q *Q }\n\ntype Q struct{ z int }\n\nfunc F() string { return fmt.Sprint(S{a: 1}, &P{q: &Q{z: 1}}) }\n", map[string]bool{"x.S.a": true, "x.P.q": true, "x.Q.z": false}},
		{"printed by its String method", "type V struct{ a int }\n\nfunc (v V) String() string { return \"v\" }\n\nfunc F() string { return fmt.Sprint(V{a: 1}) }\n", map[string]bool{"x.V.a": false}},
		{"unread parameter", "func F(a, b int) int { return a }\n\nvar _ = F(1, 2)\n", map[string]bool{"x.F.a": true, "x.F.b": false}},
		{"parameter read by a closure", "func F(a int) func() int { return func() int { return a } }\n", map[string]bool{"x.F.a": true}},
		{"interface method", "type I interface{ M(n int) }\n\ntype U struct{}\n\nfunc (U) M(n int) {}\n\nvar _ I = U{}\n", map[string]bool{"x.U.M.n": true}},
		{"function used as a value", "func H(n int) {}\n\nvar hook = H\n", map[string]bool{"x.H.n": true}},
		{"method used as a value", "type U struct{}\n\nfunc (U) N(n int) {}\n\nvar hook = U{}.N\n", map[string]bool{"x.U.N.n": true}},
		{"called, not a value", "type U struct{}\n\nfunc (U) N(n int) {}\n\nfunc H(n int) {}\n\nfunc F() { H(1); U{}.N(1) }\n", map[string]bool{"x.H.n": false, "x.U.N.n": false}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tree := &sourceTree{fset: fset, std: std, pkgs: make(map[string]*sourcePkg)}
			f, err := parser.ParseFile(fset, "x.go", head+row.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			p := &sourcePkg{dir: "x", files: []*ast.File{f}, info: &types.Info{
				Types: make(map[ast.Expr]types.TypeAndValue),
				Defs:  make(map[*ast.Ident]types.Object),
				Uses:  make(map[*ast.Ident]types.Object),
			}}
			if p.types, err = (&types.Config{Importer: tree}).Check(modulePath+"/x", fset, p.files, p.info); err != nil {
				t.Fatal(err)
			}
			tree.pkgs["x"] = p
			g := stateCensus(tree)
			for name, read := range row.want {
				v, ok := g[name]
				switch {
				case !ok:
					t.Errorf("%s: not censused", name)
				case read && v.finding != "":
					t.Errorf("%s: want read, got %q", name, v.finding)
				case !read && v.finding == "":
					t.Errorf("%s: want unread, got read", name)
				}
			}
		})
	}
	tree, err := checkedTree()
	if err != nil {
		t.Fatal(err)
	}
	g := stateCensus(tree)
	for _, name := range []string{"simnet.linkKey.from", "simnet.linkKey.to", "load.zipfKey.n", "load.zipfKey.theta", "slo.Incident.Kind", "slo.Incident.CauseAt"} {
		if v, ok := g[name]; !ok || v.finding != "" {
			t.Errorf("%s: want censused and read, got censused %v, finding %q", name, ok, v.finding)
		}
	}
}

// TestOptionCensusClassifies holds optionCensus to its rules, one case
// a row: each row is a small tree written to a temporary directory and
// loaded as the repository is, with internal/x declaring the options
// below and the row's files setting them. want names the fields the
// gate must pass (set to two values or more) and fail (at most one).
func TestOptionCensusClassifies(t *testing.T) {
	const decl = "package x\n\ntype Config struct{ A, B int }\n\ntype RunOptions struct{ P int }\n\ntype Other struct{ Q int }\n\n" +
		"func DefaultConfig() Config { return Config{A: 1, B: 2} }\n\n" +
		"func (c Config) WithDefaults() Config {\n\tif c.A <= 0 {\n\t\tc.A = 3\n\t}\n\treturn c\n}\n\n" +
		"func Use(Config, RunOptions, Other) {}\n"
	user := func(body string) string {
		return "package y\n\nimport \"repro/internal/x\"\n\nfunc F(n int) {\n" + body + "\n}\n"
	}
	rows := []struct {
		name  string
		files map[string]string // path → source, beside internal/x/x.go
		want  map[string]bool   // name → passes
	}{
		{"an omitted key writes the zero value",
			map[string]string{"internal/y/y.go": user("\tx.Use(x.Config{A: 1}, x.RunOptions{P: 1}, x.Other{})\n\tx.Use(x.Config{A: 2, B: 7}, x.RunOptions{}, x.Other{})")},
			map[string]bool{"x.Config.A": true, "x.Config.B": true, "x.RunOptions.P": true}},
		{"an explicit zero is the omitted one",
			map[string]string{"internal/y/y.go": user("\tx.Use(x.Config{A: 1, B: 0}, x.RunOptions{P: 0}, x.Other{})\n\tx.Use(x.Config{A: 2}, x.RunOptions{}, x.Other{})")},
			map[string]bool{"x.Config.A": true, "x.Config.B": false, "x.RunOptions.P": false}},
		{"T{} writes the zero value to every field",
			map[string]string{"internal/y/y.go": user("\tx.Use(x.Config{}, x.RunOptions{}, x.Other{})\n\tx.Use(x.Config{4, 4}, x.RunOptions{4}, x.Other{})")},
			map[string]bool{"x.Config.A": true, "x.Config.B": true, "x.RunOptions.P": true}},
		{"a non-constant write counts as many values",
			map[string]string{"internal/y/y.go": user("\tx.Use(x.Config{A: n, B: 2 * 3}, x.RunOptions{P: n}, x.Other{})\n\tc := x.DefaultConfig()\n\tc.B = 6\n\tx.Use(c, x.RunOptions{}, x.Other{})")},
			map[string]bool{"x.Config.A": true, "x.Config.B": false, "x.RunOptions.P": true}},
		{"assignments, op-assigns and ++ write",
			map[string]string{"internal/y/y.go": user("\tc := x.DefaultConfig()\n\tc.A = 1\n\tc.A = 2\n\to := x.RunOptions{}\n\to.P++\n\tc.B += 1\n\tx.Use(c, o, x.Other{})")},
			map[string]bool{"x.Config.A": true, "x.Config.B": true, "x.RunOptions.P": true}},
		{"the declaring package's defaulting does not count",
			map[string]string{"internal/y/y.go": user("\tx.Use(x.Config{A: 5}.WithDefaults(), x.RunOptions{}, x.Other{})")},
			map[string]bool{"x.Config.A": false, "x.Config.B": false, "x.RunOptions.P": false}},
		{"test writes do not count",
			map[string]string{
				"internal/y/y.go":      user("\tx.Use(x.Config{A: 1, B: 1}, x.RunOptions{}, x.Other{})"),
				"internal/y/y_test.go": "package y\n\nimport \"repro/internal/x\"\n\nvar _ = x.Config{A: 2, B: 2}\n",
			},
			map[string]bool{"x.Config.A": false, "x.Config.B": false}},
		{"examples/ counts",
			map[string]string{
				"internal/y/y.go":    user("\tx.Use(x.Config{A: 1, B: 1}, x.RunOptions{}, x.Other{})"),
				"examples/e/main.go": "package main\n\nimport \"repro/internal/x\"\n\nfunc main() { x.Use(x.Config{A: 2, B: 1}, x.RunOptions{}, x.Other{}) }\n",
			},
			map[string]bool{"x.Config.A": true, "x.Config.B": false}},
		{"benchmark/ counts",
			map[string]string{
				"internal/y/y.go":  user("\tx.Use(x.Config{A: 1, B: 1}, x.RunOptions{}, x.Other{})"),
				"benchmark/go.mod": "module repro/benchmark\n",
				"benchmark/b.go":   "package main\n\nimport \"repro/internal/x\"\n\nfunc main() { x.Use(x.Config{A: 2, B: 1}, x.RunOptions{}, x.Other{}) }\n",
			},
			map[string]bool{"x.Config.A": true, "x.Config.B": false}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			root := t.TempDir()
			files := map[string]string{"go.mod": "module repro\n", "internal/x/x.go": decl}
			for path, src := range row.files {
				files[path] = src
			}
			for path, src := range files {
				full := filepath.Join(root, path)
				if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			tree, err := loadTree(root)
			if err != nil {
				t.Fatal(err)
			}
			g := optionCensus(tree)
			if _, ok := g["x.Other.Q"]; ok {
				t.Error("x.Other.Q: censused, but Other is no Config or Options")
			}
			for name, passes := range row.want {
				v, ok := g[name]
				switch {
				case !ok:
					t.Errorf("%s: not censused", name)
				case passes && v.finding != "":
					t.Errorf("%s: want passed, got %q", name, v.finding)
				case !passes && v.finding == "":
					t.Errorf("%s: want failed, got passed", name)
				}
			}
		})
	}
}
