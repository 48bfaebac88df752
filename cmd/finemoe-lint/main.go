// finemoe-lint is the repo's determinism and hot-path contract checker: a
// multichecker driver over the analyzers in internal/analysis — the four
// intraprocedural checks (detrange, noclock, unitmix, mustrelease) and
// the four interprocedural, fact-carrying ones (callalloc, sharedstate,
// floatorder, puritycheck). It loads packages offline through the local
// build cache, so it runs anywhere `go build` does:
//
//	go run ./cmd/finemoe-lint ./...
//	go run ./cmd/finemoe-lint -json ./...    # machine-readable report
//
// Every run applies the whole suite, prints an inventory of every
// //finemoe: directive, and reports stale or unknown directives as
// findings.
//
// Exit status: 0 clean, 1 diagnostics found, 2 driver error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"finemoe/internal/analysis/checker"
	"finemoe/internal/analysis/suite"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the report (findings and directive inventory) as JSON")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: finemoe-lint [-json] [packages]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nanalyzers:\n")
		for _, a := range suite.All {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	rep, err := checker.RunPackages(".", args, suite.All)
	if err != nil {
		fmt.Fprintf(os.Stderr, "finemoe-lint: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "finemoe-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range rep.Findings {
			fmt.Println(f)
		}
		fmt.Printf("%-24s %6s %6s\n", "directive", "count", "stale")
		for _, c := range rep.Inventory {
			fmt.Printf("%-24s %6d %6d\n", c.Name, c.Count, c.Stale)
		}
	}
	if n := len(rep.Findings); n > 0 {
		fmt.Fprintf(os.Stderr, "finemoe-lint: %d problem(s)\n", n)
		os.Exit(1)
	}
}
