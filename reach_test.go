package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the internal/ declarations that no program reaches but
// that stay, each with the reason. A reason names the test that observes
// live behaviour through the declaration, the paper claim it backs, or the
// ROADMAP item that targets it. An entry that the programs do reach, or
// that names no declaration, fails TestInternalReachable.
var reachAllow = map[string]string{
	"cachesim.Cache.Lines":            "FuzzCacheMatchesReference reads a cache's resident lines through it",
	"cachesim.Cache.Stats":            "FuzzCacheMatchesReference and FuzzSlicedLLCMatchesReference compare hit/miss counters through it",
	"cachesim.LineSet.Lines":          "FuzzCacheMatchesReference reads a slice's resident lines through it",
	"cat.Controller.COSOf":            "llcmgmt's TestIsolationPlanMasks reads the class a core was moved to through it",
	"cat.Controller.Mask":             "llcmgmt's TestIsolationPlanMasks reads the capacity mask programmed for a class through it",
	"chash.Sandy2":                    "ROADMAP item 6(b): the published Sandy Bridge hash as a reveng target",
	"cpusim.Core.L1":                  "netsim's TestBatchMatchesScalar* tests (machineDigest) and nfv's TestForwarder read L1 state through it",
	"cpusim.Core.L2":                  "netsim's TestBatchMatchesScalar* tests (machineDigest) read L2 state through it",
	"cpusim.Core.TLBStats":            "TestTLBHitsAndMisses and TestHugepagesUseHugeTLB observe the §3 TLB through it",
	"cpusim.Machine.EnableTLB":        "§3's page-size claim: TestSpeedupPageSizeIndependent runs with the TLB on",
	"daemon.Lifecycle.Draining":       "slicekvsd's TestGracefulDrain checks the drain state through it",
	"dpdk.Mbuf.Headroom":              "cachedirector's TestHeadroomMissFallback and ladder tests read the headroom CacheDirector chose through it",
	"dpdk.Port.DDIOMask":              "llcmgmt's TestIsolationPlanMasks reads the I/O-way mask programmed into a port through it",
	"dpdk.Port.FlowRules":             "llcmgmt's TestAttachNet and netsim's machineDigest count installed FlowDirector rules through it",
	"faults.Injector.Opportunities":   "netsim's TestWindowBoundariesUnderSaturation counts injection opportunities through it",
	"faults.MispredictedHash.SetRate": "cachedirector's TestWatchdogDegradesAndRecovers changes the misprediction rate mid-run through it",
	"netsim.DuT.CoreOffset":           "llcmgmt's TestAttachNet checks the DuT polls from the tenant's first core through it",
	"obs.Monitor.Firing":              "TestMonitorFiresAndResolves counts firing SLOs through it",
	"overload.Shedder.Threshold":      "slicekvsd's TestOverloadShedsLowClassFirst reads the per-class shed thresholds through it",
	"telemetry.Timeline.Samples":      "netsim's TestTelemetryStageCoverage and TestWatchdogDegradedOnTimeline read the uncore timeline through it",
}

// TestInternalReachable fails on any package-level func, method, type, var
// or const in internal/ that no program reaches. It type-checks both
// modules (this one and bench/) from source and follows references from
// the roots:
//   - every declaration in cmd/, examples/, scripts/ and bench/;
//   - init functions;
//   - the reachAllow entries;
//   - a method whose name is a method of some interface in the program
//     or its standard-library dependencies, once its receiver type is live
//     (a call through an interface names no concrete method).
//
// Tests are not roots: code only a test calls is dead code with a test.
// Struct fields are out of scope.
func TestInternalReachable(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*listedPkg
	seen := map[string]bool{}
	for _, dir := range []string{".", "bench"} {
		listed, err := goList(goBin, filepath.Join(root, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range listed {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	decls, err := buildDeclGraph(pkgs)
	if err != nil {
		t.Fatal(err)
	}

	isRoot := func(d *declNode) bool {
		rel, _ := filepath.Rel(root, d.pos.Filename)
		top := strings.SplitN(filepath.ToSlash(rel), "/", 2)[0]
		return top == "cmd" || top == "examples" || top == "scripts" || top == "bench" || d.name == d.pkg+".init"
	}
	unreached := func(withAllow bool) (dead []*declNode) {
		live := reach(decls, func(d *declNode) bool {
			_, allowed := reachAllow[d.name]
			return isRoot(d) || withAllow && allowed
		})
		for _, d := range decls {
			rel, _ := filepath.Rel(root, d.pos.Filename)
			if !live[d] && strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
				dead = append(dead, d)
			}
		}
		return dead
	}

	deadNames := map[string]bool{}
	for _, d := range unreached(false) {
		deadNames[d.name] = true
	}
	for name := range reachAllow {
		if !deadNames[name] {
			t.Errorf("reachAllow entry %q names no unreached internal/ declaration", name)
		}
	}
	var lines []string
	for _, d := range unreached(true) {
		rel, _ := filepath.Rel(root, d.pos.Filename)
		lines = append(lines, fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), d.pos.Line, d.name))
	}
	sort.Strings(lines)
	if len(lines) > 0 {
		t.Errorf("%d internal/ declarations are reached by no program; delete them or add a reasoned reachAllow entry:\n%s",
			len(lines), strings.Join(lines, "\n"))
	}
}

type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// goList lists the packages of the module in dir and their dependencies,
// dependencies first. With cgo off every listed package is plain Go.
func goList(goBin, dir string) ([]*listedPkg, error) {
	cmd := exec.Command(goBin, "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list in %s: %s", dir, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
}

// declNode is one package-level declaration: a func, a method, a type, or
// one name of a var or const spec.
type declNode struct {
	name string // pkg.Name or pkg.Type.Method
	pkg  string
	pos  token.Position
	refs []*declNode
}

// reach returns every declaration reachable from the roots.
func reach(decls []*declNode, isRoot func(*declNode) bool) map[*declNode]bool {
	live := map[*declNode]bool{}
	var work []*declNode
	mark := func(d *declNode) {
		if !live[d] {
			live[d] = true
			work = append(work, d)
		}
	}
	for _, d := range decls {
		if isRoot(d) {
			mark(d)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range d.refs {
			mark(r)
		}
	}
	return live
}

// buildDeclGraph parses every package, type-checks them in dependency
// order (standard-library packages without function bodies) and links each
// program declaration to the program declarations its syntax uses.
func buildDeclGraph(pkgs []*listedPkg) ([]*declNode, error) {
	fset := token.NewFileSet()
	checked := map[string]*types.Package{"unsafe": types.Unsafe}
	ifaceNames := map[string]bool{"Error": true} // the predeclared error has no syntax
	type progPkg struct {
		pkg   *listedPkg
		files []*ast.File
		info  *types.Info
	}
	var prog []progPkg
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							ifaceNames[id.Name] = true
						}
					}
				}
				return true
			})
		}
		if p.ImportPath == "unsafe" {
			continue
		}
		var firstErr error
		conf := types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if mapped, ok := p.ImportMap[path]; ok {
					path = mapped
				}
				if tp := checked[path]; tp != nil {
					return tp, nil
				}
				return nil, fmt.Errorf("%s is not checked before %s", path, p.ImportPath)
			}),
			IgnoreFuncBodies: p.Standard,
			Error: func(err error) {
				if firstErr == nil {
					firstErr = err
				}
			},
		}
		var info *types.Info
		if !p.Standard {
			info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		}
		tp, _ := conf.Check(p.ImportPath, fset, files, info)
		if firstErr != nil && !p.Standard {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, firstErr)
		}
		checked[p.ImportPath] = tp
		if !p.Standard {
			prog = append(prog, progPkg{p, files, info})
		}
	}

	// One node per declared object, then the edges its syntax implies.
	var decls []*declNode
	byObj := map[types.Object]*declNode{}
	// ifaceMethods lists, per receiver type, its methods whose name some
	// interface declares.
	ifaceMethods := map[*types.TypeName][]*declNode{}
	type pending struct {
		node   *declNode
		syntax []ast.Node
		info   *types.Info
	}
	var todo []pending
	add := func(p *listedPkg, info *types.Info, id *ast.Ident, syntax ...ast.Node) {
		if id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		d := &declNode{name: p.Name + "." + id.Name, pkg: p.Name, pos: fset.Position(id.Pos())}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				tn := namedOf(recv.Type())
				d.name = p.Name + "." + tn.Name() + "." + id.Name
				if ifaceNames[id.Name] {
					ifaceMethods[tn] = append(ifaceMethods[tn], d)
				}
			}
		}
		if obj != nil {
			byObj[obj] = d
		}
		decls = append(decls, d)
		todo = append(todo, pending{d, syntax, info})
	}
	for _, pp := range prog {
		for _, f := range pp.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					add(pp.pkg, pp.info, decl.Name, decl)
				case *ast.GenDecl:
					var last *ast.ValueSpec // the spec an implicit const repeats
					for _, spec := range decl.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(pp.pkg, pp.info, s.Name, s)
						case *ast.ValueSpec:
							if s.Type != nil || len(s.Values) > 0 {
								last = s
							}
							for _, id := range s.Names {
								add(pp.pkg, pp.info, id, exprNodes(last.Type, last.Values)...)
							}
						}
					}
				}
			}
		}
	}
	for _, td := range todo {
		for _, n := range td.syntax {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if r := byObj[originOf(td.info.Uses[id])]; r != nil && r != td.node {
						td.node.refs = append(td.node.refs, r)
					}
				}
				return true
			})
		}
	}
	// A live type keeps its interface-named methods live.
	for obj, d := range byObj {
		if tn, ok := obj.(*types.TypeName); ok {
			d.refs = append(d.refs, ifaceMethods[tn]...)
		}
	}
	return decls, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// namedOf returns the type name behind a receiver type T or *T.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// originOf maps a use of an instantiated generic func or method to its
// declaration.
func originOf(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

func exprNodes(typ ast.Expr, values []ast.Expr) []ast.Node {
	var out []ast.Node
	if typ != nil {
		out = append(out, typ)
	}
	for _, v := range values {
		out = append(out, v)
	}
	return out
}
