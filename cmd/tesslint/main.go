// Command tesslint runs the repository's static analyzers (internal/lint)
// over every package of the module in the current directory and reports
// file:line:column diagnostics, exiting nonzero when it finds anything. It
// is part of the `make check` gate:
//
//	tesslint ./...
//
// The suite is three analyzers — aborterr, maporder, sendalias — each
// reading one function at a time and each holding an invariant whose
// planted defect no test catches (DESIGN.md "Static invariants"). There
// are no flags and no suppression directives.
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
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
	if len(args) > 1 || len(args) == 1 && args[0] != "./..." {
		fmt.Fprintln(stderr, "usage: tesslint [./...]")
		return 2
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "tesslint:", err)
		return 2
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(stderr, "tesslint:", err)
		return 2
	}
	moduleDir, err := filepath.Abs(".")
	if err != nil {
		fmt.Fprintln(stderr, "tesslint:", err)
		return 2
	}
	diags := lint.Run(pkgs, lint.All())
	for _, d := range diags {
		if rel, err := filepath.Rel(moduleDir, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stdout, "tesslint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
