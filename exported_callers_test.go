package ctrise_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportedCallerExclusions are the internal packages the checker does
// not audit, each with its reason. Their own uses of other packages'
// names still count.
var exportedCallerExclusions = map[string]string{
	"ctrise/internal/chaos": "a fault-injection harness that only tests drive, by design",
	"ctrise/internal/load":  "the bench's old load generator; ROADMAP item 6 deletes it",
}

// exportedCallerAllowlist names the exported identifiers in internal/
// that stay although no non-test file references them, each with its
// reason. A key is the package path below internal/, then the name,
// then for a method the method name: "auditor.Auditor.ExpectInclusion".
var exportedCallerAllowlist = map[string]string{
	"auditor.Auditor.ExpectInclusion": "ROADMAP item 22 wires it to the frontend and ctmon, or deletes it with its alert class",
	"certs.Certificate.ToX509":        "x509 bridge: the real-DER reference tests compare synthetic certificates against",
	"certs.GenerateKeyPair":           "x509 bridge: signs the reference certificates",
	"certs.IssuerKeyHash":             "x509 bridge: the issuer key hash of a real SPKI",
	"ctclient.StatusError.Is":         "errors.Is finds it through an anonymous interface in the standard library",
	"ecosystem.World.Close":           "closes the durable logs Config.DataDir opens; goes with DataDir (ROADMAP item 19)",
}

// configFieldAllowlist names the exported fields of internal/ structs
// called …Config that no non-test code sets, each with its reason.
var configFieldAllowlist = map[string]string{
	"auditor.Config.RetryBase":        "a test clock seam: chaos tests shrink the monitors' backoff",
	"ca.Config.LogFinalCerts":         "the final-certificate logging replay; only tests turn it on",
	"ecosystem.Config.DataDir":        "durable replays; ROADMAP item 19",
	"ecosystem.Config.NimbusCapacity": "the Section 2 overload replay; parked with Nimbus through the frontend",
	"ecosystem.Config.TileSpan":       "durable replays; ROADMAP item 19",
	"ecosystem.Config.UseFrontend":    "frontend-routed replays; parked with Nimbus through the frontend",
}

// TestExportedNamesHaveCallers fails on any exported function, method,
// type, var or const in internal/ that no non-test file of the module
// references, and on any exported field of an internal/ struct named
// …Config that no non-test file sets. It is a stdlib-only reduction of
// the deadcode tool (https://go.dev/blog/deadcode): it type-checks the
// non-test GoFiles of every package `go list ./...` prints, cmd/,
// examples/ and bench/ included, and counts
//   - a use of the object from any of those files, except from inside
//     the object's own declaration (a recursive call, or a type named
//     in its own receivers);
//   - for a method, its type satisfying an interface that has the
//     method: any interface type written in the module, plus error,
//     fmt.Stringer, http.Handler, http.RoundTripper, io.Reader and
//     rand.Source;
//   - for a …Config field, a composite-literal element, an assignment
//     or increment, or taking its address.
//
// Limits: it checks the host build only (the only build-tagged files,
// internal/ctlog/base64_{amd64,other}.go, declare no exported names),
// it sees no use made by reflection, and it needs the go command on
// PATH. The standard library is imported from export data.
//
// To keep a name that fails here, add one line to
// exportedCallerAllowlist (or configFieldAllowlist) with the reason;
// an entry whose name gains a caller or disappears fails too.
func TestExportedNamesHaveCallers(t *testing.T) {
	m := loadModule(t)
	dead, stale := againstAllowlist(m.unusedNames(true), exportedCallerAllowlist)
	unset, staleFields := againstAllowlist(m.unsetConfigFields(), configFieldAllowlist)
	report := func(what string, keys []string) {
		if len(keys) == 0 {
			return
		}
		sort.Strings(keys)
		t.Errorf("%s (%d):\n\t%s", what, len(keys), strings.Join(keys, "\n\t"))
	}
	report("exported names in internal/ that no non-test file references; delete them or allowlist them with a reason", dead)
	report("allowlisted names that now have a caller or no longer exist; drop their allowlist lines", stale)
	report("…Config fields in internal/ that no non-test file sets; delete them or allowlist them with a reason", unset)
	report("allowlisted …Config fields that are now set or no longer exist; drop their allowlist lines", staleFields)
}

// TestUnexportedNamesHaveCallers fails on any unexported package-level
// func, type, var or const, and any unexported method, in internal/ or
// cmd/ that no non-test file references. Uses and exclusions are those
// of TestExportedNamesHaveCallers; main, init and _ are exempt. A key is
// the package path below internal/, or below the module for cmd/, then
// the name: "phish.normalizeJoin", "cmd/ctlogd.checkFlags". There
// is no allowlist: only the name's own package can call it, so delete it.
func TestUnexportedNamesHaveCallers(t *testing.T) {
	unused := loadModule(t).unusedNames(false)
	if len(unused) > 0 {
		sort.Strings(unused)
		t.Errorf("unexported names in internal/ and cmd/ that no non-test file references; delete them (%d):\n\t%s", len(unused), strings.Join(unused, "\n\t"))
	}
}

// againstAllowlist splits found into the keys allow lacks, and returns
// the keys of allow that were not found.
func againstAllowlist(found []string, allow map[string]string) (missing, stale []string) {
	seen := make(map[string]bool, len(found))
	for _, key := range found {
		seen[key] = true
		if _, ok := allow[key]; !ok {
			missing = append(missing, key)
		}
	}
	for key := range allow {
		if !seen[key] {
			stale = append(stale, key)
		}
	}
	return missing, stale
}

// listedPackage is the part of `go list -json` output the checker reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
}

// checkedPackage is one type-checked package: its non-test files and
// what go/types recorded about them.
type checkedPackage struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// moduleTypes is every package of the module, type-checked; order lists
// them dependencies first.
type moduleTypes struct {
	fset   *token.FileSet
	listed map[string]*listedPackage
	pkgs   map[string]*checkedPackage
	order  []string
	std    types.Importer
	used   map[types.Object]bool // what findUses found
}

// loadModule returns the module's packages, listed and type-checked
// once per test binary.
func loadModule(t *testing.T) *moduleTypes {
	t.Helper()
	m, err := moduleOnce()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

var moduleOnce = sync.OnceValues(func() (*moduleTypes, error) {
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	m := &moduleTypes{
		fset:   token.NewFileSet(),
		listed: map[string]*listedPackage{},
		pkgs:   map[string]*checkedPackage{},
		std:    importer.Default(),
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		m.listed[lp.ImportPath] = &lp
	}
	paths := make([]string, 0, len(m.listed))
	for path := range m.listed {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := m.check(path); err != nil {
			return nil, err
		}
	}
	if m.used, err = m.findUses(); err != nil {
		return nil, err
	}
	return m, nil
})

// Import type-checks a module package on first use and takes every
// other package from the standard library's export data.
func (m *moduleTypes) Import(path string) (*types.Package, error) {
	if _, ok := m.listed[path]; ok {
		cp, err := m.check(path)
		if err != nil {
			return nil, err
		}
		return cp.pkg, nil
	}
	return m.std.Import(path)
}

func (m *moduleTypes) check(path string) (*checkedPackage, error) {
	if cp, ok := m.pkgs[path]; ok {
		return cp, nil
	}
	lp := m.listed[path]
	cp := &checkedPackage{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		cp.files = append(cp.files, f)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, cp.files, cp.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	cp.pkg = pkg
	m.pkgs[path] = cp
	m.order = append(m.order, path)
	return cp, nil
}

// audited reports whether path is a package the checker audits, and its
// key prefix: internal/ packages, and with withCmd the cmd/ packages too.
func audited(path string, withCmd bool) (string, bool) {
	rel, ok := strings.CutPrefix(path, "ctrise/internal/")
	if !ok && withCmd && strings.HasPrefix(path, "ctrise/cmd/") {
		rel, ok = strings.TrimPrefix(path, "ctrise/"), true
	}
	if !ok {
		return "", false
	}
	for ex := range exportedCallerExclusions {
		if path == ex || strings.HasPrefix(path, ex+"/") {
			return "", false
		}
	}
	return rel, true
}

// origin maps a method or field of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// findUses returns every object that a non-test file references from
// outside the object's own declaration, or through which a type
// satisfies an interface.
func (m *moduleTypes) findUses() (map[types.Object]bool, error) {
	// own maps each object to the source ranges where naming it is not a
	// use: its own declaration, and for a type its methods' receivers.
	type span struct{ pos, end token.Pos }
	own := map[types.Object][]span{}
	for _, path := range m.order {
		cp := m.pkgs[path]
		for _, f := range cp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					own[cp.info.Defs[d.Name]] = append(own[cp.info.Defs[d.Name]], span{d.Pos(), d.End()})
					if d.Recv != nil {
						if fn, ok := cp.info.Defs[d.Name].(*types.Func); ok {
							if named := receiverNamed(fn); named != nil {
								own[named.Obj()] = append(own[named.Obj()], span{d.Recv.Pos(), d.Recv.End()})
							}
						}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							own[cp.info.Defs[ts.Name]] = append(own[cp.info.Defs[ts.Name]], span{ts.Pos(), ts.End()})
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for _, path := range m.order {
		for id, obj := range m.pkgs[path].info.Uses {
			obj = origin(obj)
			inside := false
			for _, s := range own[obj] {
				if s.pos <= id.Pos() && id.Pos() < s.end {
					inside = true
					break
				}
			}
			if !inside {
				used[obj] = true
			}
		}
	}
	if err := m.markInterfaceMethods(used); err != nil {
		return nil, err
	}
	return used, nil
}

// unusedNames returns the keys of the audited names that nothing
// references: the exported ones in internal/, or the unexported ones in
// internal/ and cmd/.
func (m *moduleTypes) unusedNames(exported bool) []string {
	audit := func(obj types.Object) bool {
		if exported {
			return obj.Exported() && !m.used[obj]
		}
		return !obj.Exported() && !m.used[obj] && obj.Name() != "main" && obj.Name() != "init" && obj.Name() != "_"
	}
	var keys []string
	for _, path := range m.order {
		rel, ok := audited(path, !exported)
		if !ok {
			continue
		}
		scope := m.pkgs[path].pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if audit(obj) {
				keys = append(keys, rel+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if meth := named.Method(i); audit(meth) {
					keys = append(keys, rel+"."+name+"."+meth.Name())
				}
			}
		}
	}
	return keys
}

// receiverNamed returns the generic origin of method fn's receiver type,
// or nil for a function.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	named, _ := typ.(*types.Named)
	if named == nil {
		return nil
	}
	return named.Origin()
}

// markInterfaceMethods marks as used every method through which a module
// type satisfies an interface the module writes or one of the standard
// interfaces the module's values are handed to.
func (m *moduleTypes) markInterfaceMethods(used map[types.Object]bool) error {
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(typ types.Type) {
		it, ok := typ.Underlying().(*types.Interface)
		if ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, std := range [][2]string{
		{"fmt", "Stringer"},
		{"net/http", "Handler"},
		{"net/http", "RoundTripper"},
		{"io", "Reader"},
		{"math/rand", "Source"},
	} {
		pkg, err := m.Import(std[0])
		if err != nil {
			return err
		}
		add(pkg.Scope().Lookup(std[1]).Type())
	}
	var named []*types.Named
	for _, path := range m.order {
		cp := m.pkgs[path]
		for _, tv := range cp.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
		scope := cp.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
				named = append(named, n)
			}
		}
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				meth := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, meth.Pkg(), meth.Name())
				if obj != nil {
					used[origin(obj)] = true
				}
			}
		}
	}
	return nil
}

// unsetConfigFields returns the keys of the exported fields of audited
// …Config structs that no non-test file sets.
func (m *moduleTypes) unsetConfigFields() []string {
	set := map[types.Object]bool{}
	markSel := func(info *types.Info, e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				set[v.Origin()] = true
			}
		}
	}
	for _, path := range m.order {
		info := m.pkgs[path].info
		for _, f := range m.pkgs[path].files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							set[st.Field(i).Origin()] = true
							continue
						}
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := info.Uses[id].(*types.Var); ok {
								set[v.Origin()] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markSel(info, lhs)
					}
				case *ast.IncDecStmt:
					markSel(info, n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markSel(info, n.X)
					}
				}
				return true
			})
		}
	}
	var keys []string
	for _, path := range m.order {
		rel, ok := audited(path, false)
		if !ok {
			continue
		}
		scope := m.pkgs[path].pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !strings.HasSuffix(name, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !set[f] {
					keys = append(keys, rel+"."+name+"."+f.Name())
				}
			}
		}
	}
	return keys
}
