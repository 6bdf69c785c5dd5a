package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader is the one Loader of this test binary: the module and the
// standard library it imports are type-checked from source once, and every
// fixture and the whole-module gate reuse them.
var sharedLoader = sync.OnceValues(func() (*Loader, error) { return NewLoader("../..") })

func moduleLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := sharedLoader()
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
	diags := Run([]*Package{pkg}, analyzers)

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

func TestAbortErrFixture(t *testing.T)  { checkFixture(t, "aborterr", []*Analyzer{AbortErr}) }
func TestMapOrderFixture(t *testing.T)  { checkFixture(t, "maporder", []*Analyzer{MapOrder}) }
func TestSendAliasFixture(t *testing.T) { checkFixture(t, "sendalias", []*Analyzer{SendAlias}) }

// TestRealModuleClean is the zero-findings gate over the shipped tree: the
// whole module must pass the full analyzer suite.
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
	for _, d := range Run(pkgs, All()) {
		t.Errorf("%s", d.String())
	}
}
