package analyze

import (
	"fmt"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestFixtures runs the full analyzer suite over each fixture package
// and checks the findings against the `// want "substring"` comments:
// every want must be matched by exactly one finding on its line, and
// every finding must be claimed by a want. The Clean*/negative
// functions therefore prove silence as strictly as the positives prove
// detection.
func TestFixtures(t *testing.T) {
	for _, name := range []string{
		"locksafe", "errlint", "allocfree", "failpointcov", "lockinfer", "seqlockcheck",
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", name)
			pkg, err := LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			findings := Run([]*Package{pkg}, FixtureConfig(pkg.Path))
			wants := parseWants(t, pkg)
			if len(wants) == 0 {
				t.Fatalf("fixture %s declares no want comments", name)
			}
			for _, f := range findings {
				key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
				text := "[" + f.Analyzer + "] " + f.Message
				want, ok := wants[key]
				switch {
				case !ok:
					t.Errorf("unexpected finding: %s", f)
				case !strings.Contains(text, want):
					t.Errorf("finding at %s = %q, want substring %q", key, text, want)
				default:
					delete(wants, key)
				}
			}
			for key, want := range wants {
				t.Errorf("no finding at %s matching %q", key, want)
			}
		})
	}
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// parseWants extracts the expected findings from fixture comments,
// keyed by "file:line".
func parseWants(t *testing.T, pkg *Package) map[string]string {
	t.Helper()
	wants := make(map[string]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				if prev, dup := wants[key]; dup {
					t.Fatalf("%s: two want comments (%q, %q); one finding per line", key, prev, m[1])
				}
				wants[key] = m[1]
			}
		}
	}
	return wants
}

// loaded holds the one module type-check the module-wide tests share.
var loaded struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadModule type-checks the whole module on first use and hands every
// later caller the same packages.
func loadModule(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("module-wide type-check is slow; skipped with -short")
	}
	loaded.once.Do(func() {
		loaded.pkgs, loaded.err = LoadModule("../..", []string{"./..."})
	})
	if loaded.err != nil {
		t.Fatal(loaded.err)
	}
	return loaded.pkgs
}

// TestModuleClean is the gate the CI static-analysis job enforces: the
// committed tree must produce zero findings under the real config.
func TestModuleClean(t *testing.T) {
	pkgs := loadModule(t)
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; module discovery is broken", len(pkgs))
	}
	for _, f := range Run(pkgs, DefaultConfig()) {
		t.Errorf("%s", f)
	}
}

// TestProtocolAnnotationsPresent pins the module's annotation surface:
// the hot paths and seqlock halves the interprocedural analyzers verify
// must stay annotated, or the verification silently switches off. It
// also pins the failpoint catalog diff at empty — every declared site
// reachable by the crash matrix.
func TestProtocolAnnotationsPresent(t *testing.T) {
	cov := Coverage(loadModule(t), DefaultConfig())
	has := func(list []string, entry string) bool {
		for _, e := range list {
			if e == entry {
				return true
			}
		}
		return false
	}
	for _, entry := range []string{
		"kflushing/internal/index.Entry.insert",
		"kflushing/internal/index.Entry.TrimBeyondTopK",
		"kflushing/internal/store.Store.Put",
		"kflushing/internal/store.Store.Remove",
		"kflushing/internal/blackbox.Recorder.Record",
		"kflushing/internal/blackbox.Recorder.RecordID",
		"kflushing/internal/blackbox.Recorder.record",
		"kflushing/internal/trace.Trace.Stage (whennil)",
		"kflushing/internal/trace.DiskProbe.AddSegment (whennil)",
	} {
		if !has(cov.Noalloc, entry) {
			t.Errorf("noalloc annotation missing: %s", entry)
		}
	}
	for _, entry := range []string{
		"kflushing/internal/blackbox.Recorder.record (writer)",
		"kflushing/internal/blackbox.readSlot (reader)",
	} {
		if !has(cov.Seqlock, entry) {
			t.Errorf("seqlock annotation missing: %s", entry)
		}
	}
	if len(cov.Dead) > 0 {
		t.Errorf("failpoint sites declared but never evaluated: %v", cov.Dead)
	}
	if len(cov.Declared) == 0 || len(cov.Declared) != len(cov.Evaluated) {
		t.Errorf("failpoint catalog diff not empty: %d declared, %d evaluated",
			len(cov.Declared), len(cov.Evaluated))
	}
}

// TestConfigNamesResolve checks that every module name DefaultConfig
// declares is still a field, type or function of the module. A mutex,
// interface or pool method that is renamed or deleted leaves its entry
// matching nothing, and the check the entry drives goes quiet without a
// finding.
func TestConfigNamesResolve(t *testing.T) {
	byPath := make(map[string]*types.Package)
	for _, p := range loadModule(t) {
		byPath[p.Path] = p.Types
	}
	cfg := DefaultConfig()
	var names []string
	for name := range cfg.LockRank {
		names = append(names, name)
	}
	for _, set := range []map[string]bool{
		cfg.NoBlockLocks, cfg.CallbackIfaces, cfg.NoallocPoolFuncs,
		cfg.NoallocExemptCallees, cfg.FailpointEvalFuncs,
	} {
		for name := range set {
			names = append(names, name)
		}
	}
	for typ, field := range cfg.SeqlockSlotTypes {
		names = append(names, typ, typ+"."+field)
	}
	sort.Strings(names)
	for _, name := range names {
		if !resolves(byPath, name) {
			t.Errorf("DefaultConfig names %s, which the module does not declare", name)
		}
	}
}

// resolves reports whether name — "pkgpath.Name" or
// "pkgpath.Type.member" — is a package-level object, or a field or
// method of a named type, in one of the packages.
func resolves(byPath map[string]*types.Package, name string) bool {
	slash := strings.LastIndex(name, "/")
	path, rest, ok := strings.Cut(name[slash+1:], ".")
	if !ok {
		return false
	}
	pkg := byPath[name[:slash+1]+path]
	if pkg == nil {
		return false
	}
	ident, member, _ := strings.Cut(rest, ".")
	obj := pkg.Scope().Lookup(ident)
	if obj == nil {
		return false
	}
	if member == "" {
		return true
	}
	if _, isType := obj.(*types.TypeName); !isType {
		return false
	}
	found, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, member)
	return found != nil
}
