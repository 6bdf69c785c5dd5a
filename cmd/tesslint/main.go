// Command tesslint runs the repository's static analyzers (internal/lint)
// over module packages and reports file:line:column diagnostics, exiting
// nonzero when it finds anything. It is part of the `make check` gate:
//
//	tesslint ./...                  # analyze the whole module
//	tesslint ./internal/voronoi     # analyze specific directories
//	tesslint -list                  # describe the analyzer suite
//	tesslint -run maporder ./...    # run a subset (comma-separated)
//	tesslint -json ./...            # machine-readable findings (CI)
//
// The suite is six analyzers — aborterr, donesel, hotalloc, loanretain,
// maporder, sendalias — each holding an invariant no compiler error or
// test holds (DESIGN.md "Static invariants"). They share one
// interprocedural Program per invocation, built over the analyzed
// packages plus every module package they pull in through imports — so
// escape summaries see helpers even when only a subset of directories is
// being reported on.
//
// Diagnostics can be suppressed with a reasoned directive on the same
// line or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("tesslint", flag.ContinueOnError)
	fl.SetOutput(stderr)
	list := fl.Bool("list", false, "list analyzers and exit")
	sel := fl.String("run", "", "comma-separated analyzer names to run (default: all)")
	dir := fl.String("C", ".", "directory to resolve the module from")
	asJSON := fl.Bool("json", false, "emit findings as a JSON array (machine-readable)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All()
	if *sel != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*sel, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(stderr, "tesslint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	moduleDir, err := findModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "tesslint:", err)
		return 2
	}
	loader, err := lint.NewLoader(moduleDir)
	if err != nil {
		fmt.Fprintln(stderr, "tesslint:", err)
		return 2
	}

	patterns := fl.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var pkgs []*lint.Package
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			loaded, err := loader.LoadAll()
			if err != nil {
				fmt.Fprintln(stderr, "tesslint:", err)
				return 2
			}
			pkgs = append(pkgs, loaded...)
		default:
			pkg, err := loader.LoadDir(pat)
			if err != nil {
				fmt.Fprintln(stderr, "tesslint:", err)
				return 2
			}
			pkgs = append(pkgs, pkg)
		}
	}

	// The Program spans every package the loader touched — analyzed
	// targets plus module dependencies pulled in as imports — so summaries
	// cover helpers outside the reported-on set.
	prog := lint.BuildProgram(loader.Cached())
	diags := lint.RunProgram(prog, pkgs, analyzers)
	for i := range diags {
		pos := &diags[i].Pos
		if rel, err := filepath.Rel(moduleDir, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
	}
	if *asJSON {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "tesslint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s [%s]\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stdout, "tesslint: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// jsonFinding is the stable machine-readable schema of one diagnostic.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON emits findings as one JSON array ([] when clean), so CI can
// parse the output without scraping text.
func writeJSON(w io.Writer, diags []lint.Diagnostic) error {
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonFinding{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}
