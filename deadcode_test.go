package repro

// TestDeadCode keeps the module free of code no program calls. It parses
// every package's non-test files, type-checks them against empty
// standard-library stubs, and lists each top-level declaration outside
// benchmark/ that no non-test code references. A listed name fails the
// test unless testdata/deadcode_allow.txt names it with a reason, and an
// entry that no longer lists fails too, so the allowlist only shrinks.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const deadcodeAllowFile = "testdata/deadcode_allow.txt"

// deadcodeReasons are the allowlist's reason categories: a hook tests
// drive by design (or a reference implementation they compare against),
// public API a module author plausibly calls, and a name only benchmark/
// holds up until that directory is cleared (ROADMAP item 1(d)).
var deadcodeReasons = []string{"hook:", "api:", "bench:"}

// stdInterfaceMethods are methods the standard library calls through an
// interface (fmt.Stringer, error, errors.Unwrap). The standard library is
// stubbed, so such calls resolve to nothing; a method of one of these
// names counts as referenced. A type passed to another standard
// interface adds that method's name here. Any other method counts as
// referenced through an interface only if its receiver type implements
// a module interface that has it.
var stdInterfaceMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true}

// liveness is how a declaration is referenced from non-test code.
type liveness uint8

const (
	unreferenced liveness = iota
	benchOnly             // only benchmark/ refers to it
	live
)

type deadDecl struct {
	key  string // module-relative package dir, then Name or Type.Method
	pos  token.Position
	live liveness
}

type deadPkg struct {
	dir   string // module-relative, "." for the root
	files []*ast.File
	types *types.Package
}

// deadModule loads every package under root for the check.
type deadModule struct {
	fset    *token.FileSet
	pkgs    map[string]*deadPkg // by import path
	checked map[string]*types.Package
	info    *types.Info
}

func loadDeadModule(root, module string) (*deadModule, error) {
	m := &deadModule{
		fset:    token.NewFileSet(),
		pkgs:    map[string]*deadPkg{},
		checked: map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		pkg := &deadPkg{dir: filepath.ToSlash(rel)}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg.files = append(pkg.files, f)
		}
		if len(pkg.files) > 0 {
			m.pkgs[path.Join(module, pkg.dir)] = pkg
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ip := range m.pkgs {
		m.Import(ip)
	}
	return m, nil
}

// Import type-checks a module package once its imports are checked, and
// gives every other path an empty, complete package. A stub can only
// lose references, so its errors are ignored: a reference it loses lists
// a live name, and the test fails loudly rather than passing dead code.
func (m *deadModule) Import(ip string) (*types.Package, error) {
	if p, ok := m.checked[ip]; ok {
		return p, nil
	}
	var p *types.Package
	if src, ok := m.pkgs[ip]; ok {
		conf := types.Config{Importer: m, Error: func(error) {}}
		p, _ = conf.Check(ip, m.fset, src.files, m.info)
		src.types = p
	} else {
		name := path.Base(ip)
		if strings.HasPrefix(name, "v") && strings.Trim(name[1:], "0123456789") == "" {
			name = path.Base(path.Dir(ip)) // math/rand/v2
		}
		p = types.NewPackage(ip, name)
		p.MarkComplete()
	}
	m.checked[ip] = p
	return p, nil
}

// deadDecls lists the module's top-level declarations outside the skip
// directory with how non-test code references each.
func (m *deadModule) deadDecls(skip string) []*deadDecl {
	decls := map[types.Object]*deadDecl{}
	for _, pkg := range m.pkgs {
		if inDir(pkg.dir, skip) {
			continue
		}
		for _, f := range pkg.files {
			for _, d := range declUnits(f) {
				for _, id := range declIdents(d) {
					obj := m.info.Defs[id]
					if obj == nil || id.Name == "_" || id.Name == "init" || (id.Name == "main" && f.Name.Name == "main") {
						continue
					}
					key := id.Name
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
						key = recvName(fd) + "." + key
					}
					decls[obj] = &deadDecl{key: pkg.dir + "." + key, pos: m.fset.Position(id.Pos())}
				}
			}
		}
	}

	var ifaces []*types.Interface
	for _, pkg := range m.pkgs {
		bench := inDir(pkg.dir, skip)
		for _, f := range pkg.files {
			for _, d := range declUnits(f) {
				self := map[types.Object]bool{}
				for _, id := range declIdents(d) {
					self[m.info.Defs[id]] = true
				}
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					self[pkg.types.Scope().Lookup(recvName(fd))] = true
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.InterfaceType:
						if it, ok := m.info.Types[n].Type.(*types.Interface); ok && it.NumMethods() > 0 {
							ifaces = append(ifaces, it)
						}
					case *ast.Ident:
						obj := m.info.Uses[n]
						if fn, ok := obj.(*types.Func); ok {
							obj = fn.Origin()
						}
						if dd := decls[obj]; dd != nil && !self[obj] {
							if bench {
								dd.live = max(dd.live, benchOnly)
							} else {
								dd.live = live
							}
						}
					}
					return true
				})
			}
		}
	}

	var out []*deadDecl
	for obj, dd := range decls {
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			if stdInterfaceMethods[fn.Name()] || implementsWith(fn, ifaces) {
				continue
			}
		}
		if dd.live != live {
			out = append(out, dd)
		}
	}
	slices.SortFunc(out, func(a, b *deadDecl) int { return strings.Compare(a.key, b.key) })
	return out
}

// implementsWith reports whether the receiver type of method fn, as T or
// *T, implements one of ifaces that has a method of fn's name: a call
// through that interface may reach fn.
func implementsWith(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range ifaces {
		for i := range it.NumMethods() {
			if it.Method(i).Name() == fn.Name() && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
	}
	return false
}

// declUnits splits a file's top-level declarations into functions and
// the specs of grouped declarations: a reference from inside one unit
// to a name it defines does not keep that name alive.
func declUnits(f *ast.File) []ast.Node {
	var units []ast.Node
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			units = append(units, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				units = append(units, s)
			}
		}
	}
	return units
}

// declIdents returns the names a declaration unit defines.
func declIdents(n ast.Node) []*ast.Ident {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{n.Name}
	case *ast.TypeSpec:
		return []*ast.Ident{n.Name}
	case *ast.ValueSpec:
		return n.Names
	}
	return nil
}

// recvName is the name of a method's receiver base type.
func recvName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func inDir(dir, parent string) bool {
	return dir == parent || strings.HasPrefix(dir, parent+"/")
}

// readDeadAllow reads the allowlist: one "key  reason" per line, where
// the reason starts with a category from deadcodeReasons; blank lines
// and lines starting with # are skipped.
func readDeadAllow(name string) (map[string]string, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		if !slices.ContainsFunc(deadcodeReasons, func(c string) bool { return strings.HasPrefix(reason, c) }) {
			return nil, fmt.Errorf("%s:%d: %s: reason must start with one of %v", name, n, key, deadcodeReasons)
		}
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", name, n, key)
		}
		allow[key] = reason
	}
	return allow, sc.Err()
}

func TestDeadCode(t *testing.T) {
	m, err := loadDeadModule(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readDeadAllow(deadcodeAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, d := range m.deadDecls("benchmark") {
		listed[d.key] = true
		reason, ok := allow[d.key]
		switch {
		case !ok && d.live == benchOnly:
			t.Errorf("%s: %s is referenced only by benchmark/: delete it with its use there, or allowlist it as bench:", d.pos, d.key)
		case !ok:
			t.Errorf("%s: %s is referenced by no non-test code: delete it, or allowlist it in %s", d.pos, d.key, deadcodeAllowFile)
		case strings.HasPrefix(reason, "bench:") && d.live != benchOnly:
			t.Errorf("%s: %s is allowlisted as bench: but benchmark/ no longer references it: delete it", d.pos, d.key)
		}
	}
	for key := range allow {
		if !listed[key] {
			t.Errorf("%s: %s is referenced or gone: remove its entry", deadcodeAllowFile, key)
		}
	}
}
