// Command cloudgraph-vet runs the project-specific analyzer suite over the
// whole module: the concurrency, determinism and wire-schema invariants
// that `go vet` cannot see. The analyzers always load the full module, so
// package arguments such as ./... are accepted and ignored.
//
// Usage:
//
//	go run ./cmd/cloudgraph-vet ./...        # findings, one per line
//	go run ./cmd/cloudgraph-vet -json ./...  # machine-readable findings
//	go run ./cmd/cloudgraph-vet -list        # what each analyzer checks
//
// Suppress a finding with `//lint:allow <analyzer> <justification>`
// trailing the offending line, or alone on the line above it.
//
// Exit status: 0 clean, 1 findings, 2 load or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cloudgraph/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	analyzers := analysis.Suite()
	if *list {
		width := 0
		for _, a := range analyzers {
			width = max(width, len(a.Name))
		}
		for _, a := range analyzers {
			fmt.Printf("%-*s  %s\n", width, a.Name, a.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fatalf("%v", err)
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		fatalf("load module: %v", err)
	}
	findings := analysis.Run(analyzers, pkgs)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatalf("encode: %v", err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "cloudgraph-vet: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cloudgraph-vet: "+format+"\n", args...)
	os.Exit(2)
}
