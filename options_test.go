package sophon_test

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
	"regexp"
	"sort"
	"strings"
	"testing"
)

// optionKeep is one optionKeeps entry: the one reason the field stays and,
// for a test seam, the function of a _test.go file that sets it, as
// pkg.Func (the field's own package allowed).
type optionKeep struct{ reason, test string }

// optionKeeps lists the exported option fields that have no setter in
// non-test code outside their own package and stay anyway. An entry whose
// field gains an outside setter, or goes away, or whose test no longer names
// it, fails the test as stale.
var optionKeeps = map[string]optionKeep{
	// Clock injection: the seam every virtual-time test drives.
	"repro/internal/cluster.Config.Clock":        {"test seam: virtual link clock", "repro/internal/cluster.TestSetLinkMbps"},
	"repro/internal/core.ControllerConfig.Clock": {"test seam: virtual replan-history clock", "repro/internal/core.TestControllerReplansOnSustainedBandwidthDrop"},

	// Filled by the declaring package's own caller-facing constructor.
	"repro/internal/loadgen.JobSpec.Name":           {reason: "loadgen.SpecFromTenant fills it"},
	"repro/internal/loadgen.JobSpec.Weight":         {reason: "loadgen.SpecFromTenant fills it"},
	"repro/internal/loadgen.JobSpec.Sessions":       {reason: "loadgen.SpecFromTenant fills it"},
	"repro/internal/loadgen.JobSpec.Mix":            {reason: "loadgen.SpecFromTenant fills it"},
	"repro/internal/loadgen.JobSpec.RawBytes":       {reason: "loadgen.SpecFromTenant fills it"},
	"repro/internal/loadgen.JobSpec.OffloadCPU":     {reason: "loadgen.SpecFromTenant fills it"},
	"repro/internal/loadgen.JobSpec.OffloadedBytes": {reason: "loadgen.SpecFromTenant fills it"},

	// internal/soak is the harness the chaos tests drive; sophon-bench sets
	// only the seed, class and duration.
	"repro/internal/soak.Config.Epochs":    {"test seam: chaos soak tests size the run", "repro.TestChaosSoakReproducible"},
	"repro/internal/soak.Config.Lookahead": {"test seam: chaos soak tests sweep the fetch depth", "repro.TestChaosSoakClasses"},
	"repro/internal/soak.Config.Samples":   {"test seam: chaos soak tests size the run", "repro.TestChaosSoakReproducible"},
}

var optionStruct = regexp.MustCompile(`(Config|Options|Policy|Spec)$`)

// checked is one of the module's packages, type-checked from its non-test
// files with every identifier's use recorded.
type checked struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// sourceLoader type-checks the module's packages from source, each once;
// everything else goes to the standard source importer.
type sourceLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*checked
}

func (l *sourceLoader) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return l.std.Import(path)
	}
	if c, ok := l.pkgs[path]; ok {
		return c.pkg, nil
	}
	dir := "." + strings.TrimPrefix(path, "repro")
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = &checked{p, info, files}
	return p, nil
}

// benchLive is the benchmark's command. benchmarks/ is a module of its own,
// but it compiles against this one's internal packages from source, so the
// census reads it, read-only, as one more caller.
const benchLive = "repro/benchmarks/live"

// loadModule type-checks every package of the module from its non-test
// files, and benchLive.
func loadModule(t *testing.T) *sourceLoader {
	t.Helper()
	fset := token.NewFileSet()
	l := &sourceLoader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*checked{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path == "benchmarks" || (path != "." && strings.HasPrefix(d.Name(), ".")) || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(path, 0); err != nil || len(bp.GoFiles) == 0 {
			return nil // no non-test Go files here
		}
		_, err = l.Import(filepath.ToSlash(filepath.Join("repro", path)))
		return err
	})
	if err == nil {
		_, err = l.Import(benchLive)
	}
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestEveryOptionHasACaller is the census ISSUE 22 ran by hand, made
// executable: an exported field of a struct named *Config, *Options, *Policy
// or *Spec must be set somewhere in non-test code outside the package that
// declares it (a cmd/ binary, an examples/ program, internal/soak, another
// internal package), or be listed in optionKeeps with its reason; a test
// seam also names the test that sets it. A field only tests set is not a
// feature.
func TestEveryOptionHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	l := loadModule(t)

	// Every option field, keyed by where it is declared.
	type field struct{ name, pkg string }
	fields := map[token.Pos]field{}
	declared := map[string]bool{}
	for path, c := range l.pkgs {
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !optionStruct.MatchString(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					fields[f.Pos()] = field{path + "." + name + "." + f.Name(), path}
					declared[path+"."+name+"."+f.Name()] = true
				}
			}
		}
	}

	// Setters: a keyed composite-literal element, or a selector that is
	// assigned to, incremented or has its address taken.
	set := map[token.Pos]bool{}
	for path, c := range l.pkgs {
		mark := func(e ast.Expr) {
			var id *ast.Ident
			switch e := e.(type) {
			case *ast.Ident:
				id = e
			case *ast.SelectorExpr:
				id = e.Sel
			default:
				return
			}
			if v, ok := c.info.Uses[id].(*types.Var); ok && v.IsField() {
				if f, ok := fields[v.Pos()]; ok && f.pkg != path {
					set[v.Pos()] = true
				}
			}
		}
		for _, file := range c.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							mark(kv.Key)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						mark(lhs)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				}
				return true
			})
		}
	}

	var unset []string
	for pos, f := range fields {
		k, kept := optionKeeps[f.name]
		switch {
		case set[pos] && kept:
			t.Errorf("stale keep: %s now has a non-test setter outside its package (reason was %q)", f.name, k.reason)
		case !set[pos] && !kept:
			unset = append(unset, f.name)
		}
	}
	for name, k := range optionKeeps {
		if !declared[name] {
			t.Errorf("stale keep: %s no longer exists", name)
		}
		if strings.HasPrefix(k.reason, "test seam") != (k.test != "") {
			t.Errorf("keep %s: a test seam names the test that sets it, and only a test seam does", name)
		} else if k.test != "" {
			if err := namesIn(name, k.test, true); err != nil {
				t.Errorf("stale keep: %s: %v", name, err)
			}
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s: no non-test code outside its package sets it — make it a constant or delete it with the path it selects", name)
	}
	t.Logf("%d exported option fields, %d kept by name, %d unlisted without a setter", len(fields), len(optionKeeps), len(unset))
}

// TestEveryReadFieldIsSet catches the knobs TestEveryOptionHasACaller's
// struct-name filter misses: an exported field of any exported struct of the
// module that non-test code reads must also be set by non-test code
// somewhere (its own package included), or be listed in optionKeeps. A set
// is a keyed composite-literal element, an element of an unkeyed literal, an
// assignment, an inc/dec, a field whose address is taken, or a method call
// on the field (an atomic counter's Add). A field that is read but never
// set only ever holds its zero value outside tests, so the path it selects
// is one only tests reach.
func TestEveryReadFieldIsSet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	l := loadModule(t)

	names := map[*types.Var]string{}
	for path, c := range l.pkgs {
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					names[f] = path + "." + name + "." + f.Name()
				}
			}
		}
	}

	read, set := map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, c := range l.pkgs {
		setIDs := map[*ast.Ident]bool{}
		mark := func(e ast.Expr) {
			switch e := ast.Unparen(e).(type) {
			case *ast.Ident:
				setIDs[e] = true
			case *ast.SelectorExpr:
				setIDs[e.Sel] = true
			}
		}
		for _, file := range c.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, isStruct := c.info.Types[n].Type.Underlying().(*types.Struct)
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							mark(kv.Key)
						} else if isStruct && i < st.NumFields() {
							set[st.Field(i).Origin()] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						mark(lhs)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				case *ast.CallExpr:
					if m, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
						mark(m.X)
					}
				}
				return true
			})
		}
		for id, obj := range c.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if setIDs[id] {
					set[v.Origin()] = true
				} else {
					read[v.Origin()] = true
				}
			}
		}
	}

	var nread int
	var unset []string
	for v, name := range names {
		if !read[v] {
			continue
		}
		nread++
		if _, kept := optionKeeps[name]; !set[v] && !kept {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s: non-test code reads it but only tests set it — make it a constant or delete it with the path it selects", name)
	}
	t.Logf("%d exported fields of exported structs, %d read by non-test code, %d of those unset", len(names), nread, len(unset))
}

// keepReason is why an exported name stays without a live caller, or
// without a caller outside its package. The set is closed: "only tests
// exercise this capability" is not a reason.
type keepReason string

const (
	keepBench  keepReason = "a benchmarks/live test reads it"
	keepOracle keepReason = "a reference or oracle another package's test compares against"
	keepSeam   keepReason = "a test seam: another package's test builds with it, drives it or checks against it"
)

// keep is one exportKeeps entry: its reason, and the function or method of
// another package's _test.go files that needs the name, as pkg.Func.
type keep struct {
	reason keepReason
	test   string
}

// exportKeeps lists the names TestEveryExportHasACaller covers that stay
// exported although no live code outside their package names them, keyed
// pkg.Name or pkg.Type.Method. An entry whose name gains such a caller, or
// goes away, or whose test no longer names it, fails the test as stale.
var exportKeeps = map[string]keep{
	"repro/internal/imaging.FlipHorizontal": {keepOracle, "repro/internal/pipeline.TestFlipProbabilityZeroAndOne"},
	"repro/internal/raceflag.Enabled":       {keepBench, benchLive + ".TestSmoke"}, // other packages' race-gated tests read it too

	// Constructors and values other packages' tests build with.
	"repro/internal/imaging.MustNew":      {keepSeam, "repro/internal/tensor.TestFromImageScalesAndTransposes"},
	"repro/internal/tensor.New":           {keepSeam, "repro/internal/pipeline.TestArtifactEncodeDecodeTensor"},
	"repro/internal/dataset.ManifestFile": {keepSeam, "repro/internal/imaging.loadDirOf"},

	// A client connection that dies after an exact byte budget: the retry
	// tests of storage and trainsim wrap their dialed pipes with it.
	"repro/internal/chaos.WrapConn":   {keepSeam, "repro/internal/storage.flakyDialer"},
	"repro/internal/chaos.CloseAfter": {keepSeam, "repro/internal/storage.flakyDialer"},

	// Probes and drivers: virtual-clock stepping, the chaos plan of a seed,
	// the raw object a served artifact is compared with, and the counters
	// and budget a monitor scrape reads.
	"repro/internal/simclock.Virtual.PendingWaiters":     {keepSeam, "repro/internal/storage.TestWithRetryCtxCancelMidBackoff"},
	"repro/internal/soak.Config.Plan":                    {keepSeam, "repro.TestChaosSoakReproducible"},
	"repro/internal/dataset.ImageSet.Raw":                {keepSeam, "repro/internal/storage.TestExecutorRunPrefix"},
	"repro/internal/storage.AdmissionController.Acquire": {keepSeam, "repro/internal/monitor.TestHammerScrapeDuringAdmissionChurn"},

	// Outcomes other packages' tests check for by identity.
	"repro/internal/imaging.ErrUnsupported": {keepSeam, "repro/internal/pipeline.TestFusedPrefixRejectsWhatDecodeRejects"},
	"repro/internal/imaging.ErrTruncated":   {keepSeam, "repro/internal/pipeline.TestFusedPrefixRejectsWhatDecodeRejects"},
	"repro/internal/pipeline.KindImage":     {keepSeam, "repro/internal/storage.TestExecutorRunPrefix"},
	"repro/internal/pipeline.KindPlanes":    {keepSeam, "repro/internal/storage.TestExecutorRunPrefix"},
	// The size law a served artifact is priced at, which no live code outside
	// pipeline reads since the prefetch staging gauge charges EncodeBound.
	"repro/internal/pipeline.Artifact.WireSize": {keepOracle, "repro/internal/storage.TestExecutorRunPrefix"},
	"repro/internal/storage.ErrClientClosed":    {keepSeam, "repro/internal/cluster.TestDialShardedClosesOnFailure"},
	"repro/internal/wire.ErrChecksum":           {keepSeam, "repro/internal/chaos.TestConnCorruptionCaughtByChecksum"},
}

// stdInterfaces are the standard-library interfaces whose methods the
// standard library calls for the module: a method that satisfies one, on a
// live type that implements it, is live.
var stdInterfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"io", "Closer"},
	{"net", "Conn"},
	{"net", "Listener"},
	{"encoding/json", "Marshaler"},
}

// TestEveryExportHasACaller is ROADMAP 6(d)'s census made executable. Its
// scope is every exported top-level func, type, var and const of internal/,
// every exported method declared on a named type of internal/ (interface
// methods included), and the façade: every exported top-level name of
// package sophon and every exported method of its own types. Each must be
// reached from live code, or be listed in exportKeeps with its reason.
//
// Live code is every declaration outside the scope (a cmd/ or examples/
// program, benchLive, an unexported declaration, an Example function), a
// kept name, and whatever live code names. A type's unexported methods live
// with it. A method is also live when its receiver type is live and either
// it implements an interface method that live code names, or it satisfies
// one of stdInterfaces.
//
// A live name of internal/ must also need its capital (ROADMAP 6(d)'s
// fourth rule): code outside its package names it, or it implements an
// interface method such code calls through or one of stdInterfaces, or it
// shows in the exported surface of a name that stays exported, or it is
// kept with the other package's test that needs it. Everything else is
// unexported.
func TestEveryExportHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	l := loadModule(t)
	examples, err := l.checkExamples()
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []*checked{examples}
	for _, c := range l.pkgs {
		pkgs = append(pkgs, c)
	}

	// The scope, keyed as exportKeeps keys it, and every named type of the
	// module for the implements checks.
	scope := map[types.Object]string{}
	var named []*types.TypeName
	for _, c := range pkgs {
		path := c.pkg.Path()
		covered := path == "repro" || strings.HasPrefix(path, "repro/internal/")
		s := c.pkg.Scope()
		for _, name := range s.Names() {
			obj := s.Lookup(name)
			tn, isType := obj.(*types.TypeName)
			if isType && !tn.IsAlias() {
				named = append(named, tn)
			}
			if !covered || !obj.Exported() {
				continue
			}
			scope[obj] = path + "." + name
			if isType && !tn.IsAlias() {
				for _, m := range declaredMethods(tn) {
					if m.Exported() {
						scope[m] = path + "." + name + "." + m.Name()
					}
				}
			}
		}
	}

	// uses[owner] holds what the declaration of owner names: owner is the
	// top-level object or method a declaration declares, nil for one that
	// declares none (a blank var). A method's receiver is not a use.
	// Interface methods are tracked out of scope too: live code that names
	// one calls through it.
	uses := map[types.Object][]types.Object{}
	namedIn := map[types.Object]map[string]bool{} // the packages that name a tracked object
	tracked := func(obj types.Object) bool {
		if scope[obj] != "" {
			return true
		}
		fn, ok := obj.(*types.Func)
		return ok && isInterfaceMethod(fn)
	}
	for _, c := range pkgs {
		record := func(owner types.Object, n ast.Node) {
			if _, ok := uses[owner]; !ok {
				uses[owner] = nil // a declaration outside the scope is live even if it names nothing
			}
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					obj := c.info.Uses[id]
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin() // a generic type's method, not one instance's
					}
					if obj != nil && obj != owner && tracked(obj) {
						uses[owner] = append(uses[owner], obj)
						if namedIn[obj] == nil {
							namedIn[obj] = map[string]bool{}
						}
						namedIn[obj][c.pkg.Path()] = true
					}
				}
				return true
			})
		}
		s := c.pkg.Scope()
		for _, file := range c.files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					owner := c.info.Defs[d.Name]
					record(owner, d.Type)
					if d.Body != nil {
						record(owner, d.Body)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							record(s.Lookup(sp.Name.Name), sp)
						case *ast.ValueSpec:
							record(s.Lookup(sp.Names[0].Name), sp)
						}
					}
				}
			}
		}
	}

	// byType[T] holds the methods that live once T does: its methods outside
	// the scope, the ones that satisfy a stdInterface, and each
	// implementation of an interface method live code names, which waits for
	// that interface method too.
	type impl struct{ via, method types.Object }
	byType := map[types.Object][]impl{}
	byIface := map[types.Object][]impl{}       // via is the implementing type here
	implOf := map[types.Object][]*types.Func{} // the interface methods a method implements
	stdImpl := map[types.Object]bool{}
	for _, tn := range named {
		for _, m := range declaredMethods(tn) {
			if scope[m] == "" {
				byType[tn] = append(byType[tn], impl{nil, m})
			}
		}
	}
	implementers := map[*types.Interface][]*types.TypeName{}
	implementersOf := func(iface *types.Interface) []*types.TypeName {
		tns, seen := implementers[iface]
		if !seen {
			for _, tn := range named {
				typ := tn.Type()
				if _, isIface := typ.Underlying().(*types.Interface); isIface || typ.(*types.Named).TypeParams().Len() > 0 {
					continue
				}
				if types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface) {
					tns = append(tns, tn)
				}
			}
			implementers[iface] = tns
		}
		return tns
	}
	methodOf := func(tn *types.TypeName, m *types.Func) types.Object {
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, m.Pkg(), m.Name())
		return obj
	}
	for _, ref := range stdInterfaces {
		obj := types.Universe.Lookup(ref.name)
		if ref.pkg != "" {
			p, err := l.std.Import(ref.pkg)
			if err != nil {
				t.Fatal(err)
			}
			obj = p.Scope().Lookup(ref.name)
		}
		iface := obj.Type().Underlying().(*types.Interface)
		for _, tn := range implementersOf(iface) {
			for i := 0; i < iface.NumMethods(); i++ {
				if m := methodOf(tn, iface.Method(i)); scope[m] != "" {
					byType[tn] = append(byType[tn], impl{nil, m})
					stdImpl[m] = true
				}
			}
		}
	}
	// Every interface method live code can reach: the ones it names, and
	// the ones in scope (a kept one reaches its implementations too).
	seen := map[types.Object]bool{}
	addImpls := func(obj types.Object) {
		fn, ok := obj.(*types.Func)
		if !ok || !isInterfaceMethod(fn) || seen[fn] {
			return
		}
		seen[fn] = true
		for _, tn := range implementersOf(fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)) {
			if m := methodOf(tn, fn); scope[m] != "" {
				byType[tn] = append(byType[tn], impl{fn, m})
				byIface[fn] = append(byIface[fn], impl{tn, m})
				implOf[m] = append(implOf[m], fn)
			}
		}
	}
	for obj := range scope {
		addImpls(obj)
	}
	for _, objs := range uses {
		for _, obj := range objs {
			addImpls(obj)
		}
	}

	// reachable is everything live code reaches from the declarations outside
	// the scope, and from the kept names when withKeeps is set.
	reachable := func(withKeeps bool) map[types.Object]bool {
		live := map[types.Object]bool{}
		var work []types.Object
		reach := func(obj types.Object) {
			if !live[obj] {
				live[obj] = true
				work = append(work, obj)
			}
		}
		for owner := range uses {
			if owner == nil || (scope[owner] == "" && !isMethod(owner)) {
				reach(owner)
			}
		}
		for obj, name := range scope {
			if _, kept := exportKeeps[name]; kept && withKeeps {
				reach(obj)
			}
		}
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			for _, used := range uses[obj] {
				reach(used)
			}
			for _, im := range byType[obj] {
				if im.via == nil || live[im.via] {
					reach(im.method)
				}
			}
			for _, im := range byIface[obj] {
				if live[im.via] {
					reach(im.method)
				}
			}
		}
		return live
	}
	live, liveWithoutKeeps := reachable(true), reachable(false)

	// The fourth rule: a live name of internal/ stays exported only when
	// another package needs the capital. capital is what does: a name code
	// outside its package names; a method that implements an interface
	// method such code names, or one declared in another package, or a
	// stdInterfaces method; an interface method a type of another package
	// implements; with withKeeps, a kept name; and every named type in the
	// signature, field or definition of a name that stays exported.
	outside := func(obj types.Object, home string) bool {
		for path := range namedIn[obj] {
			if path != home {
				return true
			}
		}
		return false
	}
	capital := func(withKeeps bool) map[types.Object]bool {
		stays := map[types.Object]bool{}
		var work []types.Object
		add := func(obj types.Object) {
			if scope[obj] != "" && !stays[obj] {
				stays[obj] = true
				work = append(work, obj)
			}
		}
		for obj, name := range scope {
			home := obj.Pkg().Path()
			needed := outside(obj, home) || stdImpl[obj]
			for _, im := range implOf[obj] {
				needed = needed || (live[im] && (im.Pkg().Path() != home || outside(im, home)))
			}
			for _, im := range byIface[obj] {
				needed = needed || im.via.Pkg().Path() != home
			}
			if _, kept := exportKeeps[name]; needed || (kept && withKeeps) {
				add(obj)
			}
		}
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			for _, tn := range exposedTypes(obj) {
				add(tn)
			}
		}
		return stays
	}
	stays, staysWithoutKeeps := capital(true), capital(false)

	for name, k := range exportKeeps {
		switch k.reason {
		case keepBench, keepOracle, keepSeam:
		default:
			t.Errorf("keep %s: %q is not one of the three keep reasons", name, k.reason)
		}
		if err := namesIn(name, k.test, false); err != nil {
			t.Errorf("stale keep: %s: %v", name, err)
		}
	}
	declared := map[string]bool{}
	for obj, name := range scope {
		declared[name] = true
		if k, kept := exportKeeps[name]; kept && liveWithoutKeeps[obj] && staysWithoutKeeps[obj] {
			t.Errorf("stale keep: %s now has a live caller outside its package (reason was %q)", name, k.reason)
		}
	}
	for name := range exportKeeps {
		if !declared[name] {
			t.Errorf("stale keep: %s no longer exists", name)
		}
	}

	// Report each dead name once: a dead type's methods go with it.
	const (
		topLevel = iota
		method
		facade
	)
	var total, kept, dead [3]int
	var unused, lower []string
	var byCaller, bySeam int
	for obj, name := range scope {
		class := topLevel
		if isMethod(obj) {
			class = method
		}
		if obj.Pkg().Path() == "repro" {
			class = facade
		}
		total[class]++
		if _, ok := exportKeeps[name]; ok {
			kept[class]++
		}
		recv := receiverObj(obj)
		switch {
		case recv != nil && !live[recv]:
		case !live[obj]:
			dead[class]++
			unused = append(unused, name)
		case class == facade:
		case staysWithoutKeeps[obj]:
			byCaller++
		case stays[obj]:
			bySeam++
		default:
			lower = append(lower, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: no live code names it — delete it, or list it in exportKeeps with its reason", name)
	}
	t.Logf("%d exported funcs, types, vars and consts of internal/, %d kept by name, %d without a caller", total[topLevel], kept[topLevel], dead[topLevel])
	t.Logf("%d exported methods of internal/ types, %d kept by name, %d without a caller", total[method], kept[method], dead[method])
	t.Logf("%d façade names and methods, %d kept by name, %d without a caller", total[facade], kept[facade], dead[facade])
	sort.Strings(lower)
	for _, name := range lower {
		t.Errorf("%s: no code outside its package names it — unexport it, or list it in exportKeeps with the other package's test that needs it", name)
	}
	t.Logf("live exported names of internal/: %d kept exported by an outside caller, %d by a keep, %d without either", byCaller, bySeam, len(lower))

	// storage.Fetcher keeps Fetch only because benchmarks/ calls it (ROADMAP
	// 1A(vi)); storage.FetchOne is the single-sample path of this module.
	for path, c := range l.pkgs {
		if path == benchLive {
			continue
		}
		for id, obj := range c.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Name() == "Fetch" && isMethod(fn) {
				t.Errorf("%s calls a Fetch method; call storage.FetchOne", l.fset.Position(id.Pos()))
			}
		}
	}
}

// checkExamples type-checks example_test.go: its Example functions are the
// façade's documented callers.
func (l *sourceLoader) checkExamples() (*checked, error) {
	f, err := parser.ParseFile(l.fset, "example_test.go", nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	p, err := (&types.Config{Importer: l}).Check("repro_test", l.fset, []*ast.File{f}, info)
	if err != nil {
		return nil, err
	}
	return &checked{p, info, []*ast.File{f}}, nil
}

// exposedTypes are the named types of the module that obj's exported surface
// shows: a func's or method's signature, a var's or const's type, an
// interface's exported methods, a struct's exported fields, or what any
// other type is defined as.
func exposedTypes(obj types.Object) []*types.TypeName {
	var out []*types.TypeName
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch typ := typ.(type) {
		case *types.Alias:
			out = append(out, typ.Obj())
			walk(types.Unalias(typ))
		case *types.Named:
			out = append(out, typ.Origin().Obj())
			for i := 0; i < typ.TypeArgs().Len(); i++ {
				walk(typ.TypeArgs().At(i))
			}
		case *types.Pointer:
			walk(typ.Elem())
		case *types.Slice:
			walk(typ.Elem())
		case *types.Array:
			walk(typ.Elem())
		case *types.Chan:
			walk(typ.Elem())
		case *types.Map:
			walk(typ.Key())
			walk(typ.Elem())
		case *types.Tuple:
			for i := 0; i < typ.Len(); i++ {
				walk(typ.At(i).Type())
			}
		case *types.Signature:
			walk(typ.Params())
			walk(typ.Results())
		case *types.Struct:
			for i := 0; i < typ.NumFields(); i++ {
				if f := typ.Field(i); f.Exported() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < typ.NumMethods(); i++ {
				if m := typ.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
		}
	}
	switch obj := obj.(type) {
	case *types.TypeName:
		walk(obj.Type().Underlying())
	default:
		walk(obj.Type())
	}
	return out
}

// namesIn checks a keep's test, pkg.Func: it must be declared in a _test.go
// file of a package other than name's, and that file must name name's last
// element. For an option field (field true) the field's own package may
// hold the test, and a keyed literal element names the field too.
func namesIn(name, test string, field bool) error {
	dot := strings.LastIndex(test, ".")
	pkg, fn := test[:dot], test[dot+1:]
	if !field && strings.HasPrefix(name, pkg+".") {
		return fmt.Errorf("%s is in the package the name is declared in", test)
	}
	sel := name[strings.LastIndex(name, ".")+1:]
	dir := "." + strings.TrimPrefix(pkg, "repro")
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return err
	}
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declares, names := false, false
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declares = declares || n.Name.Name == fn
			case *ast.SelectorExpr:
				names = names || n.Sel.Name == sel
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok && field {
					names = names || id.Name == sel
				}
			}
			return true
		})
		if declares && !names {
			return fmt.Errorf("%s's file no longer names %s", test, sel)
		}
		if declares {
			return nil
		}
	}
	return fmt.Errorf("no _test.go file of %s declares %s", pkg, fn)
}

// declaredMethods are the methods declared on tn: a named type's own, or an
// interface's explicit ones.
func declaredMethods(tn *types.TypeName) []*types.Func {
	var ms []*types.Func
	if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumExplicitMethods(); i++ {
			ms = append(ms, iface.ExplicitMethod(i))
		}
		return ms
	}
	if n, ok := tn.Type().(*types.Named); ok {
		for i := 0; i < n.NumMethods(); i++ {
			ms = append(ms, n.Method(i))
		}
	}
	return ms
}

func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// receiverObj is the named type a method is declared on, nil for anything
// else.
func receiverObj(obj types.Object) types.Object {
	if !isMethod(obj) {
		return nil
	}
	typ := obj.Type().(*types.Signature).Recv().Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	if n, ok := typ.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}
