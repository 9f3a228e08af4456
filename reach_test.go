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
	"reflect"
	"sort"
	"strings"
	"testing"
)

// reachAllow lists the internal/ declarations that no program reaches, and
// the struct fields (pkg.Type.field) that no program reads, but that stay,
// each with the reason. A reason names the test that observes live
// behaviour through the entry, the paper claim it backs, or the ROADMAP
// item that targets it. An entry that the programs do reach or read, or
// that names nothing, fails TestInternalReachable.
var reachAllow = map[string]string{
	"cachesim.Cache.Lines":                     "FuzzCacheMatchesReference reads a cache's resident lines through it",
	"cachesim.LineSet.Lines":                   "FuzzCacheMatchesReference reads a slice's resident lines through it",
	"chash.Sandy2":                             "ROADMAP item 6(b): the published Sandy Bridge hash as a reveng target",
	"cpusim.Core.L1":                           "netsim's TestBatchMatchesScalar* tests (machineDigest) and nfv's TestForwarder read L1 state through it",
	"cpusim.Core.L2":                           "netsim's TestBatchMatchesScalar* tests (machineDigest) read L2 state through it",
	"cpusim.Core.TLBStats":                     "TestTLBHitsAndMisses and TestHugepagesUseHugeTLB observe the §3 TLB through it",
	"cpusim.Machine.EnableTLB":                 "§3's page-size claim: TestSpeedupPageSizeIndependent runs with the TLB on",
	"daemon.Lifecycle.Draining":                "slicekvsd's TestGracefulDrain checks the drain state through it",
	"dpdk.Mbuf.Headroom":                       "cachedirector's TestHeadroomMissFallback and ladder tests read the headroom CacheDirector chose through it",
	"dpdk.Port.FlowRules":                      "netsim's machineDigest counts installed FlowDirector rules through it",
	"experiments.FigOverloadPoint.LadderStats": "TestFigOverload checks that the degradation ladder escalated and recovered through it",
	"experiments.HashRecoveryResult.Recovered": "TestFigure4RecoversExactly checks that Fig 4's recovered hash passed every verification probe through it",
	"experiments.HeadroomResult.Misses":        "TestHeadroomMatchesPaper checks that every (mbuf, core) pair has an in-budget placement (§4.2) through it",
	"experiments.HeadroomResult.Summary":       "TestHeadroomMatchesPaper checks §4.2's headroom distribution (median near 256 B, all within 832 B) through it",
	"experiments.OPSResult.Sizes":              "TestFigure7Shape finds Fig 7's sweet-spot and L1-resident array sizes through it",
	"experiments.PreferenceResult.Prefs":       "TestFigure16AndTable4 checks Table 4's per-core primary and secondary slices through it",
	"faults.Injector.Opportunities":            "netsim's TestWindowBoundariesUnderSaturation counts injection opportunities through it",
	"faults.MispredictedHash.SetRate":          "cachedirector's TestWatchdogDegradesAndRecovers changes the misprediction rate mid-run through it",
	"kvs.Result.Dropped":                       "TestRunCountsAndRatio checks that gets, sets and NIC drops add up to every offered request through it",
	"kvs.Result.Gets":                          "TestRunCountsAndRatio checks that gets, sets and NIC drops add up to every offered request, and the get share, through it",
	"kvs.Result.Sets":                          "TestRunCountsAndRatio checks that gets, sets and NIC drops add up to every offered request through it",
	"nfv.Router.routes":                        "TestRouterProcessAndOffload checks that PopulateDefaultAndRandom installs §5.2's 3120-route table, and TestRouterLPM counts AddRoute's routes, through it",
	"obs.Monitor.Firing":                       "TestMonitorFiresAndResolves counts firing SLOs through it",
	"overload.Shedder.Threshold":               "slicekvsd's TestOverloadShedsLowClassFirst reads the per-class shed thresholds through it",
	"telemetry.FlightRecorder.DropsLost":       "TestFlightRecorderDropsSurviveRotation checks that a drop past the side-log cap is counted, not silently lost, through it",
	"telemetry.FlightRecorder.Seq":             "netsim's TestTelemetryStageCoverage checks that the flight recorder observed every offered packet through it",
	"telemetry.Timeline.Samples":               "netsim's TestTelemetryStageCoverage and TestWatchdogDegradedOnTimeline read the uncore timeline through it",
	"wal.Batch.Len":                            "slicekvsd's committer tests (TestCommitterOneBatchInFlight, the warm-restart and drain hand-overs) and wal's TestCommitAdvancesDurableSeq check that a batch holds exactly the records it should through it",
}

// TestInternalReachable fails on any package-level func, method, type, var
// or const in internal/ that no program reaches, and on any field of a
// live internal/ struct type that no program reads. It type-checks both
// modules (this one and bench/) from source and follows references from
// the roots:
//   - every declaration in cmd/, examples/, scripts/ and bench/;
//   - init functions;
//   - the reachAllow entries.
//
// A live type T keeps a method m only if T or *T satisfies an interface
// that declares m (a call through an interface names no concrete method).
// The interfaces are those at package scope in the program and its
// standard-library dependencies, the predeclared error, the interfaces
// errors.Is, As and Unwrap dispatch through (dispatchIfaces), and the
// interface types the program's code writes out (type assertions,
// parameters); generic interfaces and interfaces without methods are
// skipped.
//
// A field is read by a field selector in a reached declaration, unless the
// selector is the target of an assignment or of ++/--; a target reached
// through index, paren or star expressions is still a write, so
// s.counts[i]++ only writes counts. Composite-literal keys are writes;
// &x.f and x.f.M() are reads. Tagged fields, every field of a struct type
// reachable through a tagged field's type (the encoders read those),
// embedded fields and _ padding are exempt. A use of the whole struct
// value reads none of its fields: comparing it with ==, printing it with
// %v, or encoding an untagged field through reflection needs a reachAllow
// entry of the form pkg.Type.field, which keeps a field.
//
// Tests are not roots: code only a test calls, and state only a test
// reads, is dead code with a test.
func TestInternalReachable(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dead, stale, err := reachFindings(goBin, root, []string{".", "bench"}, reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range stale {
		t.Errorf("reachAllow entry %q names no unreached internal/ declaration or unread field", name)
	}
	if len(dead) > 0 {
		t.Errorf("%d internal/ declarations or fields are reached or read by no program; delete them or add a reasoned reachAllow entry:\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
}

// TestReachFixture runs the gate on a module under testdata that plants
// each kind of dead code next to a look-alike that must stay.
func TestReachFixture(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	root, err := filepath.Abs(filepath.Join("testdata", "reachfixture"))
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{"lib.Meter.peak": "the fixture's allowlisted field"}
	dead, stale, err := reachFindings(goBin, root, []string{"."}, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib/lib.go:13 lib.Meter.n",
		"internal/lib/lib.go:14 lib.Meter.counts",
		"internal/lib/lib.go:29 lib.Meter.Len",
	}
	if !reflect.DeepEqual(dead, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(dead, "\n"), strings.Join(want, "\n"))
	}
	if len(stale) > 0 {
		t.Errorf("stale allow entries: %v", stale)
	}
}

// reachFindings runs the gate on the modules in the given directories
// under root. It returns the unreached declarations and unread fields in
// root's internal/ as sorted "file:line name" lines, and the allow entries
// that name neither.
func reachFindings(goBin, root string, modules []string, allow map[string]string) (dead, stale []string, err error) {
	var pkgs []*listedPkg
	seen := map[string]bool{}
	for _, dir := range modules {
		listed, err := goList(goBin, filepath.Join(root, dir))
		if err != nil {
			return nil, nil, err
		}
		for _, p := range listed {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	decls, fields, err := buildDeclGraph(pkgs)
	if err != nil {
		return nil, nil, err
	}

	relOf := func(pos token.Position) string {
		rel, _ := filepath.Rel(root, pos.Filename)
		return filepath.ToSlash(rel)
	}
	isRoot := func(d *declNode) bool {
		top := strings.SplitN(relOf(d.pos), "/", 2)[0]
		return top == "cmd" || top == "examples" || top == "scripts" || top == "bench" || d.name == d.pkg+".init"
	}
	// unreached lists the internal/ declarations that no root reaches and
	// the fields of live internal/ types that no reached declaration reads.
	unreached := func(withAllow bool) (dead []*declNode) {
		live := reach(decls, func(d *declNode) bool {
			_, allowed := allow[d.name]
			return isRoot(d) || withAllow && allowed
		})
		read := map[*types.Var]bool{}
		for d := range live {
			for _, v := range d.reads {
				read[v] = true
			}
		}
		internal := func(d *declNode) bool { return strings.HasPrefix(relOf(d.pos), "internal/") }
		for _, d := range decls {
			if !live[d] && internal(d) {
				dead = append(dead, d)
			}
		}
		for _, f := range fields {
			_, allowed := allow[f.name]
			if live[f.owner] && !read[f.v] && !(withAllow && allowed) && internal(&f.declNode) {
				dead = append(dead, &f.declNode)
			}
		}
		return dead
	}

	deadNames := map[string]bool{}
	for _, d := range unreached(false) {
		deadNames[d.name] = true
	}
	for name := range allow {
		if !deadNames[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, d := range unreached(true) {
		dead = append(dead, fmt.Sprintf("%s:%d %s", relOf(d.pos), d.pos.Line, d.name))
	}
	sort.Strings(dead)
	return dead, stale, nil
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
	name  string // pkg.Name or pkg.Type.Method
	pkg   string
	pos   token.Position
	refs  []*declNode
	reads []*types.Var // the struct fields its syntax reads
}

// fieldNode is one field of a package-level struct type.
type fieldNode struct {
	declNode // name is pkg.Type.field
	v        *types.Var
	owner    *declNode
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

// dispatchIfaces declares the interfaces a call can dispatch through that
// no package scope declares: the predeclared error, and those errors.Is,
// As and Unwrap write inside their function bodies, which the standard
// library is checked without.
const dispatchIfaces = `package dispatch

type (
	err         error
	unwrap      interface{ Unwrap() error }
	unwrapMulti interface{ Unwrap() []error }
	is          interface{ Is(error) bool }
	as          interface{ As(any) bool }
)
`

// buildDeclGraph parses every package, type-checks them in dependency
// order (standard-library packages without function bodies) and links each
// program declaration to the program declarations its syntax uses and the
// fields it reads. It also returns the program's struct fields that are
// neither tagged nor encoded through a tagged field.
func buildDeclGraph(pkgs []*listedPkg) (decls []*declNode, fields []*fieldNode, err error) {
	fset := token.NewFileSet()
	checked := map[string]*types.Package{"unsafe": types.Unsafe}
	// ifaces collects the interfaces whose methods a call can dispatch to.
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	dispatch, err := parser.ParseFile(fset, "dispatch.go", dispatchIfaces, 0)
	if err != nil {
		return nil, nil, err
	}
	dp, err := new(types.Config).Check("dispatch", fset, []*ast.File{dispatch}, nil)
	if err != nil {
		return nil, nil, err
	}
	for _, name := range dp.Scope().Names() {
		addIface(dp.Scope().Lookup(name).Type())
	}
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
				return nil, nil, err
			}
			files = append(files, f)
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
			info = &types.Info{
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
				Types: map[ast.Expr]types.TypeAndValue{},
			}
		}
		tp, _ := conf.Check(p.ImportPath, fset, files, info)
		if firstErr != nil && !p.Standard {
			return nil, nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, firstErr)
		}
		checked[p.ImportPath] = tp
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					addIface(tn.Type())
				}
			}
		}
		if !p.Standard {
			prog = append(prog, progPkg{p, files, info})
			for _, f := range files {
				ast.Inspect(f, func(n ast.Node) bool {
					if it, ok := n.(*ast.InterfaceType); ok {
						addIface(info.Types[it].Type)
					}
					return true
				})
			}
		}
	}

	// One node per declared object, then the edges its syntax implies.
	byObj := map[types.Object]*declNode{}
	type pending struct {
		node   *declNode
		syntax []ast.Node
		info   *types.Info
	}
	var todo []pending
	var named []*types.TypeName // the program's non-generic named types
	add := func(p *listedPkg, info *types.Info, id *ast.Ident, syntax ...ast.Node) *declNode {
		if id.Name == "_" {
			return nil
		}
		obj := info.Defs[id]
		d := &declNode{name: p.Name + "." + id.Name, pkg: p.Name, pos: fset.Position(id.Pos())}
		switch obj := obj.(type) {
		case *types.Func:
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				d.name = p.Name + "." + namedOf(recv.Type()).Name() + "." + id.Name
			}
		case *types.TypeName:
			if n, ok := obj.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				named = append(named, obj)
			}
		}
		if obj != nil {
			byObj[obj] = d
		}
		decls = append(decls, d)
		todo = append(todo, pending{d, syntax, info})
		return d
	}
	exempt := map[*types.Var]bool{}
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
							if d := add(pp.pkg, pp.info, s.Name, s); d != nil && !s.Assign.IsValid() {
								fields = append(fields, structFields(fset, d, pp.info.Defs[s.Name], exempt)...)
							}
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
	kept := fields[:0]
	for _, f := range fields {
		if !exempt[f.v] {
			kept = append(kept, f)
		}
	}
	fields = kept

	for _, td := range todo {
		written := map[*ast.SelectorExpr]bool{}
		markWritten := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.IndexExpr:
					e = x.X
					continue
				case *ast.ParenExpr:
					e = x.X
					continue
				case *ast.StarExpr:
					e = x.X
					continue
				case *ast.SelectorExpr:
					written[x] = true
				}
				return
			}
		}
		for _, n := range td.syntax {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markWritten(lhs)
					}
				case *ast.IncDecStmt:
					markWritten(n.X)
				case *ast.SelectorExpr:
					if v, ok := td.info.Uses[n.Sel].(*types.Var); ok && v.IsField() && !written[n] {
						td.node.reads = append(td.node.reads, v.Origin())
					}
				case *ast.Ident:
					if r := byObj[originOf(td.info.Uses[n])]; r != nil && r != td.node {
						td.node.refs = append(td.node.refs, r)
					}
				}
				return true
			})
		}
	}
	// A live type keeps the methods through which it satisfies an
	// interface, promoted ones included.
	for _, tn := range named {
		ptr := types.NewPointer(tn.Type())
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		for _, it := range ifaces {
			if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				if r := byObj[originOf(obj)]; r != nil {
					byObj[tn].refs = append(byObj[tn].refs, r)
				}
			}
		}
	}
	return decls, fields, nil
}

// structFields returns a node per named field of the struct type obj
// declares. It marks exempt every field that is tagged or that an encoder
// reaches through a tagged field's type.
func structFields(fset *token.FileSet, owner *declNode, obj types.Object, exempt map[*types.Var]bool) []*fieldNode {
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []*fieldNode
	for i := 0; i < st.NumFields(); i++ {
		v := st.Field(i)
		if v.Embedded() || v.Name() == "_" {
			continue
		}
		if st.Tag(i) != "" {
			exemptThrough(v.Type(), exempt, map[types.Type]bool{})
			exempt[v] = true
		}
		out = append(out, &fieldNode{
			declNode: declNode{name: owner.name + "." + v.Name(), pkg: owner.pkg, pos: fset.Position(v.Pos())},
			v:        v,
			owner:    owner,
		})
	}
	return out
}

// exemptThrough marks exempt every field of every struct type reachable
// from t.
func exemptThrough(t types.Type, exempt map[*types.Var]bool, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		exemptThrough(u.Origin().Underlying(), exempt, seen)
	case *types.Pointer:
		exemptThrough(u.Elem(), exempt, seen)
	case *types.Slice:
		exemptThrough(u.Elem(), exempt, seen)
	case *types.Array:
		exemptThrough(u.Elem(), exempt, seen)
	case *types.Map:
		exemptThrough(u.Key(), exempt, seen)
		exemptThrough(u.Elem(), exempt, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			exempt[u.Field(i)] = true
			exemptThrough(u.Field(i).Type(), exempt, seen)
		}
	}
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
