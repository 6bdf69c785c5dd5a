package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// inModule lays out a throwaway module and makes it the working
// directory for the rest of the test.
func inModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

const cleanSrc = `package scratchmod

func Keys(m map[int]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}
`

const violatingSrc = `package scratchmod

func Keys(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
`

func TestInjectedViolationFails(t *testing.T) {
	inModule(t, map[string]string{
		"go.mod": "module scratchmod\n\ngo 1.23\n",
		"bad.go": violatingSrc,
	})
	var out, errOut strings.Builder
	if got := run([]string{"./..."}, &out, &errOut); got != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", got, errOut.String())
	}
	if !strings.HasPrefix(out.String(), "bad.go:5:") || !strings.Contains(out.String(), "[maporder]") {
		t.Errorf("output missing relative file:line or analyzer tag:\n%s", out.String())
	}
}

func TestCleanModulePasses(t *testing.T) {
	inModule(t, map[string]string{
		"go.mod":   "module scratchmod\n\ngo 1.23\n",
		"clean.go": cleanSrc,
	})
	var out, errOut strings.Builder
	if got := run(nil, &out, &errOut); got != 0 {
		t.Fatalf("exit = %d, want 0; output: %s%s", got, out.String(), errOut.String())
	}
}

// TestListAnalyzers pins the suite to exactly these three: an analyzer
// cannot come back, or vanish, without this test changing (DESIGN.md
// "Static invariants" says what each one holds that nothing else does).
func TestListAnalyzers(t *testing.T) {
	var names []string
	for _, a := range lint.All() {
		names = append(names, a.Name)
	}
	const want = "aborterr maporder sendalias"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("suite is %q, want exactly %q", got, want)
	}
}
