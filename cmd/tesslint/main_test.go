package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for the CLI to analyze.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
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
	dir := writeModule(t, map[string]string{
		"go.mod": "module scratchmod\n\ngo 1.23\n",
		"bad.go": violatingSrc,
	})
	var out, errOut strings.Builder
	if got := run([]string{"-C", dir, "./..."}, &out, &errOut); got != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", got, errOut.String())
	}
	if !strings.Contains(out.String(), "bad.go:") || !strings.Contains(out.String(), "[maporder]") {
		t.Errorf("output missing file:line or analyzer tag:\n%s", out.String())
	}
}

func TestCleanModulePasses(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":   "module scratchmod\n\ngo 1.23\n",
		"clean.go": cleanSrc,
	})
	var out, errOut strings.Builder
	if got := run([]string{"-C", dir, "./..."}, &out, &errOut); got != 0 {
		t.Fatalf("exit = %d, want 0; output: %s%s", got, out.String(), errOut.String())
	}
}

func TestAnalyzerSubset(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module scratchmod\n\ngo 1.23\n",
		"bad.go": violatingSrc,
	})
	var out, errOut strings.Builder
	// The violation is maporder's; running only sendalias must pass.
	if got := run([]string{"-C", dir, "-run", "sendalias", "./..."}, &out, &errOut); got != 0 {
		t.Fatalf("exit = %d, want 0; output: %s%s", got, out.String(), errOut.String())
	}
	if got := run([]string{"-C", dir, "-run", "nosuch", "./..."}, &out, &errOut); got != 2 {
		t.Fatalf("unknown analyzer: exit = %d, want 2", got)
	}
}

// TestListAnalyzers pins the suite to exactly these six: an analyzer
// cannot come back, or vanish, without this test changing (DESIGN.md
// "Static invariants" says what each one holds that nothing else does).
func TestListAnalyzers(t *testing.T) {
	var out, errOut strings.Builder
	if got := run([]string{"-list"}, &out, &errOut); got != 0 {
		t.Fatalf("exit = %d, want 0", got)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	const want = "aborterr donesel hotalloc loanretain maporder sendalias"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list names %q, want exactly %q", got, want)
	}
}

func TestJSONFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module scratchmod\n\ngo 1.23\n",
		"bad.go": violatingSrc,
	})
	var out, errOut strings.Builder
	if got := run([]string{"-C", dir, "-json", "./..."}, &out, &errOut); got != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", got, errOut.String())
	}
	var findings []jsonFinding
	if err := json.Unmarshal([]byte(out.String()), &findings); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %+v", len(findings), findings)
	}
	f := findings[0]
	if f.File != "bad.go" || f.Analyzer != "maporder" || f.Line == 0 || f.Message == "" {
		t.Errorf("finding fields wrong: %+v", f)
	}
}

func TestJSONClean(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":   "module scratchmod\n\ngo 1.23\n",
		"clean.go": cleanSrc,
	})
	var out, errOut strings.Builder
	if got := run([]string{"-C", dir, "-json", "./..."}, &out, &errOut); got != 0 {
		t.Fatalf("exit = %d, want 0; output: %s%s", got, out.String(), errOut.String())
	}
	var findings []jsonFinding
	if err := json.Unmarshal([]byte(out.String()), &findings); err != nil {
		t.Fatalf("clean output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(findings) != 0 {
		t.Errorf("clean module produced findings: %+v", findings)
	}
}

// TestJSONSubsetCombination pins -json composing with -run selection.
func TestJSONSubsetCombination(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module scratchmod\n\ngo 1.23\n",
		"bad.go": violatingSrc,
	})
	var out, errOut strings.Builder
	if got := run([]string{"-C", dir, "-json", "-run", "sendalias", "./..."}, &out, &errOut); got != 0 {
		t.Fatalf("exit = %d, want 0; output: %s%s", got, out.String(), errOut.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("expected empty JSON array, got:\n%s", out.String())
	}
}
