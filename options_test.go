package sophon_test

import (
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

// optionKeeps lists the exported option fields that have no setter in
// non-test code outside their own package and stay anyway, each with the one
// reason it stays. An entry whose field gains an outside setter, or goes
// away, fails the test as stale.
var optionKeeps = map[string]string{
	// Clock injection: the seam every virtual-time test drives.
	"repro/internal/cluster.Config.Clock": "test seam: virtual link clock",
	"repro/internal/core.SimConfig.Clock": "test seam: virtual controller clock",

	// benchmarks/ is its own module; its setters are invisible to this walk.
	"repro/internal/trainsim.Config.Clock":         "benchmarks/live sets it (traced phases)",
	"repro/internal/trainsim.Config.VarianceAware": "benchmarks/ compiles against it (ROADMAP 1A(vi)); not read",
	"repro/internal/engine.Config.PrefetchWindow":  "benchmarks/ compiles against it (ROADMAP 1A(vi))",

	// Filled by the declaring package's own caller-facing constructor.
	"repro/internal/storage.RetryPolicy.MaxBackoff": "storage.ConstantBackoff fills it",
	"repro/internal/storage.RetryPolicy.Multiplier": "storage.ConstantBackoff fills it",
	"repro/internal/loadgen.JobSpec.Name":           "loadgen.SpecFromTenant fills it",
	"repro/internal/loadgen.JobSpec.Weight":         "loadgen.SpecFromTenant fills it",
	"repro/internal/loadgen.JobSpec.Sessions":       "loadgen.SpecFromTenant fills it",
	"repro/internal/loadgen.JobSpec.Mix":            "loadgen.SpecFromTenant fills it",
	"repro/internal/loadgen.JobSpec.RawBytes":       "loadgen.SpecFromTenant fills it",
	"repro/internal/loadgen.JobSpec.OffloadCPU":     "loadgen.SpecFromTenant fills it",
	"repro/internal/loadgen.JobSpec.OffloadedBytes": "loadgen.SpecFromTenant fills it",

	// internal/soak is the harness the chaos tests drive; sophon-bench sets
	// only the seed, class and duration.
	"repro/internal/soak.Config.Epochs":    "chaos soak tests size the run",
	"repro/internal/soak.Config.Lookahead": "chaos soak tests sweep the fetch depth",
	"repro/internal/soak.Config.MixFlip":   "chaos soak tests turn the mid-run mix flip on",
	"repro/internal/soak.Config.Samples":   "chaos soak tests size the run",
	"repro/internal/soak.Config.Shards":    "chaos soak tests size the tier",
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
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = &checked{p, info, files}
	return p, nil
}

// loadModule type-checks every package of the module from its non-test
// files. benchmarks/ is a module of its own and is not walked.
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
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestEveryOptionHasACaller is the census ISSUE 22 ran by hand, made
// executable: an exported field of a struct named *Config, *Options, *Policy
// or *Spec must be set somewhere in non-test code outside the package that
// declares it (a cmd/ binary, an examples/ program, internal/soak, another
// internal package), or be listed in optionKeeps with its reason. A field
// only tests set is not a feature.
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
		reason, kept := optionKeeps[f.name]
		switch {
		case set[pos] && kept:
			t.Errorf("stale keep: %s now has a non-test setter outside its package (reason was %q)", f.name, reason)
		case !set[pos] && !kept:
			unset = append(unset, f.name)
		}
	}
	for name := range optionKeeps {
		if !declared[name] {
			t.Errorf("stale keep: %s no longer exists", name)
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s: no non-test code outside its package sets it — make it a constant or delete it with the path it selects", name)
	}
	t.Logf("%d exported option fields, %d kept by name, %d unlisted without a setter", len(fields), len(optionKeeps), len(unset))
}

// exportKeeps lists the exported top-level names of internal/ that no
// non-test code references and stay anyway, each with the one reason it
// stays. An entry whose name gains a caller, or goes away, fails the test as
// stale.
var exportKeeps = map[string]string{
	// Reference implementations the fused kernels are tested against.
	"repro/internal/imaging.Crop":           "reference for the fused crop (TestDecodeCropResizeMatches*)",
	"repro/internal/imaging.Resize":         "reference for the fused bilinear resize",
	"repro/internal/imaging.FlipHorizontal": "reference for the flip op",
	"repro/internal/imaging.FromPix":        "reference decoder's image constructor (reference_test.go)",

	// benchmarks/ is its own module; its callers are invisible to this walk.
	"repro/internal/bufpool.ByteStats":                 "benchmarks/ compiles against it (ROADMAP 1A(vi))",
	"repro/internal/bufpool.Float32Stats":              "benchmarks/ compiles against it (ROADMAP 1A(vi))",
	"repro/internal/compressor.MaterializeProgressive": "benchmarks/ compiles against it (ROADMAP 1A(vi))",
	"repro/internal/imaging.DecodeProgressive":         "benchmarks/ compiles against it (ROADMAP 1A(vi))",
	"repro/internal/imaging.IsProgressive":             "benchmarks/ compiles against it (ROADMAP 1A(vi))",
	"repro/internal/imaging.ProgressiveInfo":           "benchmarks/ compiles against it (ROADMAP 1A(vi))",
	"repro/internal/imaging.SlicePrefix":               "benchmarks/ compiles against it (ROADMAP 1A(vi))",
	"repro/internal/raceflag.Enabled":                  "benchmarks/ compiles against it (ROADMAP 1A(vi)); race-gated tests read it",
	"repro/internal/trainsim.StorageClient":            "benchmarks/ compiles against it (ROADMAP 1A(vi))",

	// The byte-pair dictionary: deleting it takes its tests off the suite at
	// once, more than one change may remove (ROADMAP 1A(vi)).
	"repro/internal/compressor.Dict":           "compressor.Dict goes in a change of its own",
	"repro/internal/compressor.DictStats":      "compressor.Dict goes in a change of its own",
	"repro/internal/compressor.ErrDict":        "compressor.Dict goes in a change of its own",
	"repro/internal/compressor.MaxDictEntries": "compressor.Dict goes in a change of its own",
	"repro/internal/compressor.TrainDict":      "compressor.Dict goes in a change of its own",
	"repro/internal/compressor.UnmarshalDict":  "compressor.Dict goes in a change of its own",

	// Test seams other packages' tests build with.
	"repro/internal/persist.ReadTrace": "reads back the -dump-trace file the binaries write; FuzzReadTrace holds its parser",
	"repro/internal/tensor.New":        "tensor and pipeline tests build zero tensors with it; its shape check is tested",
}

// TestEveryExportHasACaller is ROADMAP 6(d)'s census made executable: an
// exported top-level func, type, var or const of internal/ must be named by
// non-test code (any package, its own included, but not its own declaration
// or its own methods, and not a declaration that is itself dead), or be
// listed in exportKeeps with its reason.
func TestEveryExportHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	l := loadModule(t)

	names := map[types.Object]string{}
	for path, c := range l.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() {
				names[obj] = path + "." + name
			}
		}
	}

	// users[obj] holds the top-level declarations whose code names obj, each
	// as the object it declares; a method is its receiver type's, and nil
	// stands for a declaration that declares nothing (init, a blank var).
	users := map[types.Object]map[types.Object]bool{}
	for _, c := range l.pkgs {
		scope := c.pkg.Scope()
		record := func(owner types.Object, n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := c.info.Uses[id]; obj != nil && obj != owner && names[obj] != "" {
						if users[obj] == nil {
							users[obj] = map[types.Object]bool{}
						}
						users[obj][owner] = true
					}
				}
				return true
			})
		}
		for _, file := range c.files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					owner := scope.Lookup(d.Name.Name)
					if d.Recv != nil {
						owner = scope.Lookup(receiverName(d.Recv.List[0].Type))
					}
					record(owner, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							record(scope.Lookup(s.Name.Name), s)
						case *ast.ValueSpec:
							record(scope.Lookup(s.Names[0].Name), s)
						}
					}
				}
			}
		}
	}

	// A name is dead when every declaration that names it is dead. Kept
	// names count as live users, so what only they reach stays; a keep is
	// stale when a live declaration outside the keep list names it.
	dead := map[types.Object]bool{}
	liveUser := func(obj types.Object, keepsCount bool) bool {
		for owner := range users[obj] {
			if _, kept := exportKeeps[names[owner]]; kept && !keepsCount {
				continue
			}
			if owner == nil || !dead[owner] {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for obj, name := range names {
			if _, kept := exportKeeps[name]; !kept && !dead[obj] && !liveUser(obj, true) {
				dead[obj], changed = true, true
			}
		}
	}

	declared := map[string]bool{}
	var unused []string
	for obj, name := range names {
		declared[name] = true
		reason, kept := exportKeeps[name]
		switch {
		case kept && liveUser(obj, false):
			t.Errorf("stale keep: %s now has a non-test caller (reason was %q)", name, reason)
		case dead[obj]:
			unused = append(unused, name)
		}
	}
	for name := range exportKeeps {
		if !declared[name] {
			t.Errorf("stale keep: %s no longer exists", name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: no non-test code names it — delete it, or list it in exportKeeps with its reason", name)
	}
	t.Logf("%d exported funcs, types, vars and consts, %d kept by name, %d without a caller", len(names), len(exportKeeps), len(unused))

	// storage.Fetcher keeps Fetch only because benchmarks/ compiles against
	// it (ROADMAP 1A(vi)); storage.FetchOne is the single-sample path.
	for _, c := range l.pkgs {
		for id, obj := range c.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Name() == "Fetch" && fn.Type().(*types.Signature).Recv() != nil {
				t.Errorf("%s calls a Fetch method; call storage.FetchOne", l.fset.Position(id.Pos()))
			}
		}
	}
}

// receiverName is the type name a method's receiver expression names.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
