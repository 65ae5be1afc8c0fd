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
