package radqec

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The program is what its entry points reach. TestReachability loads
// the nine main packages and every internal/ package (non-test files),
// marks live everything referenced — called or merely named —
// transitively from main, init and package-level initialisers, keeps
// every method whose name some interface declares, and fails on any
// function in a non-test internal/ file that is neither live nor on
// reachAllow. An allowlist entry that has become reachable, or names a
// function that no longer exists, fails too, so the list cannot rot.
//
// Every entry carries its reason in one word:
//
//	oracle     a test of another behaviour compares against it or
//	           observes through it (reference code stays where it is)
//	test-hook  test-only arming/inspection API of a production mechanism
//	prior      the non-unit-prior producers (weighted DEM edges are the
//	           matcher's next idea, see ROADMAP)
var reachAllow = map[string]string{
	// Reference implementations and the single-call conveniences the
	// cross-engine and differential tests run them through.
	"arch.VerifyRouted":                    "oracle",
	"circuit.Circuit.Append":               "oracle",
	"circuit.Circuit.Clone":                "oracle",
	"exp.prepared.rate":                    "oracle",
	"inject.Executor.Run":                  "oracle",
	"matching.MatchingWeight":              "oracle",
	"matching.MaxWeightMatching":           "oracle",
	"matching.Workspace.MaxWeightMatching": "oracle",
	"matching.bruteForceMinPerfect":        "oracle",
	"stab.Tableau.Clone":                   "oracle",
	"stab.Tableau.ExpectationZ":            "oracle",
	"stats.TwoSampleZ":                     "oracle",
	// Accessors through which tests of construction, routing, the tile
	// record layout and histograms observe the structure.
	"frame.BatchState.Record":      "oracle",
	"graph.Graph.Connected":        "oracle",
	"graph.Graph.InducedConnected": "oracle",
	"graph.Graph.NumEdges":         "oracle",
	"qec.Code.LogicalZSupport":     "oracle",
	"qec.Code.NumXStabs":           "oracle",
	"qec.Code.NumZStabs":           "oracle",
	"qec.Code.XStabilizers":        "oracle",
	"qec.Code.ZStabilizers":        "oracle",
	"trace.Histogram.Count":        "oracle",
	// The client calls through which internal/server's tests read the
	// signals stream and a campaign's trace, and cancel a campaign.
	"client.Client.Cancel":     "oracle",
	"client.Client.Signals":    "oracle",
	"client.Client.TraceSpans": "oracle",
	"client.SignalStream.Next": "oracle",

	"faultinject.Armed":         "test-hook",
	"faultinject.Disable":       "test-hook",
	"faultinject.Hits":          "test-hook",
	"faultinject.Reset":         "test-hook",
	"qec.Code.batchMemoEntries": "test-hook",
	"qec.Code.ufMemoEntries":    "test-hook",

	"dem.Model.SpaceWeight": "prior",
	"dem.Model.TimeWeight":  "prior",
	"dem.Uniform":           "prior",
	"qec.Code.NoisePrior":   "prior",
	"qec.Code.SetPrior":     "prior",
}

const reachModule = "radqec"

// reachLoader type-checks module packages from source, memoised, and
// hands everything else to the standard source importer.
type reachLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*reachPkg
}

type reachPkg struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if path != reachModule && !strings.HasPrefix(path, reachModule+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *reachLoader) load(path string) (*reachPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := "./" + strings.TrimPrefix(strings.TrimPrefix(path, reachModule), "/") // the test runs in the module root
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &reachPkg{info: &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	p.types, err = conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// reachName renders a function the way the allowlist spells it:
// pkg.Func or pkg.Type.Method, pkg being the import path's last element.
func reachName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name += n.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

func TestReachability(t *testing.T) {
	fset := token.NewFileSet()
	l := &reachLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*reachPkg),
	}
	// Every directory holding non-test Go files is a package of the
	// module; the mains among them are the entry points.
	var paths []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dir := filepath.ToSlash(filepath.Dir(p))
			path := reachModule
			if dir != "." {
				path += "/" + dir
			}
			if len(paths) == 0 || paths[len(paths)-1] != path {
				paths = append(paths, path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
	}

	// Method names any interface declares — in the module or in a
	// package it imports — are live: a call through the interface cannot
	// be attributed to one implementation.
	ifaceMethods := make(map[string]bool)
	seenPkg := make(map[*types.Package]bool)
	var scanPkg func(p *types.Package)
	scanPkg = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						ifaceMethods[it.Method(i).Name()] = true
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			scanPkg(imp)
		}
	}

	// decls[f] holds what function f's body references; roots are main,
	// init and whatever package-level initialisers reference.
	type decl struct {
		file string
		refs []*types.Func
	}
	decls := make(map[*types.Func]*decl)
	var roots []*types.Func
	mains := 0
	for _, p := range l.pkgs {
		scanPkg(p.types)
		if p.types.Name() == "main" {
			mains++
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							ifaceMethods[id.Name] = true
						}
					}
				}
				return true
			})
			collect := func(n ast.Node) []*types.Func {
				var refs []*types.Func
				ast.Inspect(n, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.info.Uses[id].(*types.Func); ok && fn.Pkg() != nil {
							refs = append(refs, fn.Origin())
						}
					}
					return true
				})
				return refs
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					dc := &decl{file: filepath.ToSlash(fset.Position(d.Pos()).Filename)}
					if d.Body != nil {
						dc.refs = collect(d.Body)
					}
					decls[fn] = dc
					if d.Recv == nil && (fn.Name() == "init" || fn.Name() == "main" && p.types.Name() == "main") {
						roots = append(roots, fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						roots = append(roots, collect(d)...)
					}
				}
			}
		}
	}
	if mains != 9 {
		t.Errorf("loaded %d main packages, want the 9 entry points (cmd/radqec, cmd/radqecd, five examples, scripts/smokeclient, bench)", mains)
	}
	for fn := range decls {
		if fn.Type().(*types.Signature).Recv() != nil && ifaceMethods[fn.Name()] {
			roots = append(roots, fn)
		}
	}

	live := make(map[*types.Func]bool)
	for len(roots) > 0 {
		fn := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if live[fn] {
			continue
		}
		live[fn] = true
		if dc := decls[fn]; dc != nil {
			roots = append(roots, dc.refs...)
		}
	}

	var dead []string
	seen := make(map[string]bool)
	for fn, dc := range decls {
		if !strings.HasPrefix(dc.file, "internal/") {
			continue
		}
		name := reachName(fn)
		seen[name] = true
		reason, allowed := reachAllow[name]
		switch {
		case live[fn] && allowed:
			t.Errorf("reachAllow lists %s (%s) but an entry point reaches it now: drop the entry", name, reason)
		case !live[fn] && !allowed:
			dead = append(dead, name+"  "+dc.file)
		}
	}
	for name, reason := range reachAllow {
		if !seen[name] {
			t.Errorf("reachAllow lists %s (%s) but no such function exists: drop the entry", name, reason)
		}
		switch reason {
		case "oracle", "test-hook", "prior":
		default:
			t.Errorf("reachAllow[%s] = %q: want oracle, test-hook or prior", name, reason)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d functions in non-test internal/ files are reachable from no entry point; delete each with its self-test, or allowlist it with its reason:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
}
