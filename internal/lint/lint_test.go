package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// run is RunProgram with the interprocedural Program built over exactly
// pkgs.
func run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return RunProgram(BuildProgram(pkgs), pkgs, analyzers)
}

func moduleLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// checkFixture loads one testdata package, runs the given analyzers, and
// compares the diagnostics against the fixture's // want `regex` comments:
// every diagnostic must match a want on its line, and every want must be
// hit by exactly one diagnostic.
func checkFixture(t *testing.T, fixture string, analyzers []*Analyzer) {
	t.Helper()
	l := moduleLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatal(err)
	}
	diags := run([]*Package{pkg}, analyzers)

	type want struct {
		re  *regexp.Regexp
		hit bool
	}
	wants := map[string][]*want{} // "file:line" -> patterns on that line
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pat := strings.Trim(strings.TrimSpace(text), "`")
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", pat, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				wants[key] = append(wants[key], &want{re: re})
			}
		}
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.hit && w.re.MatchString(d.Message) {
				w.hit = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s: no diagnostic matching %q", key, w.re)
			}
		}
	}
}

func TestSendAliasFixture(t *testing.T)  { checkFixture(t, "sendalias", []*Analyzer{SendAlias}) }
func TestMapOrderFixture(t *testing.T)   { checkFixture(t, "maporder", []*Analyzer{MapOrder}) }
func TestHotAllocFixture(t *testing.T)   { checkFixture(t, "hotalloc", []*Analyzer{HotAlloc}) }
func TestLoanRetainFixture(t *testing.T) { checkFixture(t, "loanretain", []*Analyzer{LoanRetain}) }
func TestAbortErrFixture(t *testing.T)   { checkFixture(t, "aborterr", []*Analyzer{AbortErr}) }
func TestDoneSelFixture(t *testing.T)    { checkFixture(t, "donesel", []*Analyzer{DoneSel}) }

// TestInterprocFixture drives loanretain and sendalias over leaks that
// escape exclusively through helper calls.
func TestInterprocFixture(t *testing.T) {
	checkFixture(t, "interproc", []*Analyzer{LoanRetain, SendAlias})
}

// TestInterprocRegression pins the tentpole claim: every finding in the
// interproc fixture needs the interprocedural summaries. Running the same
// analyzers with an EMPTY Program — which reduces every call to the v1
// "results are owned, parameters don't escape" convention — must see
// nothing, and the full Program must see every leak.
func TestInterprocRegression(t *testing.T) {
	l := moduleLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "interproc"))
	if err != nil {
		t.Fatal(err)
	}
	analyzers := []*Analyzer{LoanRetain, SendAlias}
	if diags := RunProgram(BuildProgram(nil), []*Package{pkg}, analyzers); len(diags) != 0 {
		t.Errorf("function-local pass (empty Program) reported findings, so the fixture is not purely interprocedural: %v", diags)
	}
	diags := run([]*Package{pkg}, analyzers)
	if len(diags) < 8 {
		t.Errorf("interprocedural pass found %d leaks, want at least 8: %v", len(diags), diags)
	}
}

// TestDoneSelRequiresMarker checks donesel stays silent on packages
// without the //tess:abortable opt-in, whatever channel operations they
// contain.
func TestDoneSelRequiresMarker(t *testing.T) {
	l := moduleLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "suppress"))
	if err != nil {
		t.Fatal(err)
	}
	if diags := run([]*Package{pkg}, []*Analyzer{DoneSel}); len(diags) != 0 {
		t.Errorf("donesel fired on an unmarked package: %v", diags)
	}
}

// TestSuppressFixture runs maporder over violations covered by
// //lint:ignore directives: only the uncovered ones may surface.
func TestSuppressFixture(t *testing.T) { checkFixture(t, "suppress", []*Analyzer{MapOrder}) }

// TestHotAllocRequiresMarker checks the analyzer stays silent on packages
// without the //tess:hotpath opt-in, whatever they allocate.
func TestHotAllocRequiresMarker(t *testing.T) {
	l := moduleLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "suppress"))
	if err != nil {
		t.Fatal(err)
	}
	if diags := run([]*Package{pkg}, []*Analyzer{HotAlloc}); len(diags) != 0 {
		t.Errorf("hotalloc fired on an unmarked package: %v", diags)
	}
}

// TestMalformedIgnoreDirective checks that a directive missing its reason
// suppresses nothing and is itself reported.
func TestMalformedIgnoreDirective(t *testing.T) {
	fset := token.NewFileSet()
	src := "package x\n\n//lint:ignore maporder\nvar V int\n"
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Path: "x", Files: []*ast.File{f}, Fset: fset}
	var sink []Diagnostic
	dirs := collectIgnores(pkg, &sink)
	if len(dirs) != 0 {
		t.Errorf("malformed directive parsed as valid: %+v", dirs)
	}
	if len(sink) != 1 || !strings.Contains(sink[0].Message, "malformed //lint:ignore") {
		t.Errorf("expected one malformed-directive diagnostic, got %v", sink)
	}
}

// TestRealModuleClean is the zero-findings gate over the shipped tree: the
// whole module must pass the full analyzer suite. Suppressions are allowed
// only with an inline reason; TestRealModuleSuppressions pins the budget.
func TestRealModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	l := moduleLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("LoadAll found only %d packages; module walk is broken", len(pkgs))
	}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		if seen[pkg.Path] {
			t.Errorf("LoadAll returned %s twice; its findings would be reported twice", pkg.Path)
		}
		seen[pkg.Path] = true
	}
	for _, d := range run(pkgs, All()) {
		t.Errorf("%s", d.String())
	}
}

// TestRealModuleSuppressions pins the suppression budget for the shipped
// tree: every //lint:ignore directive must name a real analyzer and carry a
// reason, and adding one means raising the budget here — in review, not by
// accident.
func TestRealModuleSuppressions(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	const budget = 2
	l := moduleLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, pkg := range pkgs {
		var sink []Diagnostic
		for _, ig := range collectIgnores(pkg, &sink) {
			total++
			for _, name := range ig.analyzers {
				if name != "all" && ByName(name) == nil {
					t.Errorf("%s:%d: suppression names unknown analyzer %q", ig.file, ig.line, name)
				}
			}
			t.Logf("suppression: %s:%d [%s] %s", ig.file, ig.line, strings.Join(ig.analyzers, ","), ig.reason)
		}
		for _, d := range sink {
			t.Errorf("%s", d.String())
		}
	}
	if total > budget {
		t.Errorf("module has %d suppressions, budget is %d; justify the new one and raise the budget", total, budget)
	}
}
