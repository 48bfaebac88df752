// finemoe-lint is the repo's determinism and hot-path contract checker: a
// multichecker driver over the analyzers in internal/analysis — the four
// intraprocedural checks (detrange, noclock, unitmix, mustrelease) and
// the four interprocedural, fact-carrying ones (callalloc, sharedstate,
// floatorder, puritycheck). It loads packages offline through the local
// build cache, so it runs anywhere `go build` does:
//
//	go run ./cmd/finemoe-lint ./...
//	go run ./cmd/finemoe-lint -only detrange,noclock ./internal/serve
//	go run ./cmd/finemoe-lint -stats ./...   # directive inventory + stale suppressions
//	go run ./cmd/finemoe-lint -json ./...    # machine-readable report
//
// Invoked as a vet tool (go vet -vettool=$(which finemoe-lint) ./...) it
// speaks the cmd/go unitchecker protocol instead: responds to -V=full,
// analyzes the single *.cfg package vet hands it, and propagates
// cross-package facts through the .vetx files vet threads between units.
//
// Exit status: 0 clean, 1 diagnostics found, 2 driver error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"finemoe/internal/analysis"
	"finemoe/internal/analysis/checker"
	"finemoe/internal/analysis/suite"
)

var all = suite.All

func main() {
	versionFlag := flag.Bool("V", false, "")
	jsonOut := flag.Bool("json", false, "emit the report as JSON (findings, and with -stats the directive inventory)")
	stats := flag.Bool("stats", false, "inventory every //finemoe: directive and flag stale suppressions (forces all analyzers)")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all; ignored with -stats)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: finemoe-lint [-only a,b] [packages]\n\nanalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	// go vet probes the tool twice before handing it cfg files: -V=full
	// for a cache-keying version line, -flags for a JSON description of
	// vet flags the tool accepts (none beyond the protocol itself).
	if len(os.Args) > 1 && strings.HasPrefix(os.Args[1], "-V") {
		// cmd/go keys its vet cache on a buildID parsed from this line;
		// hashing our own executable gives it a content identity.
		printVersion()
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	flag.Parse()
	_ = versionFlag

	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	// Staleness is judged against the full directive vocabulary: running a
	// subset would mark the other analyzers' suppressions stale.
	if *only != "" && !*stats {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "finemoe-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	args := flag.Args()
	// Vet-tool mode: a single argument ending in .cfg is the unitchecker
	// protocol (see vetcfg.go).
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vetUnit(args[0], analyzers))
	}

	if len(args) == 0 {
		args = []string{"./..."}
	}
	rep, err := checker.RunPackages(".", args, analyzers, *stats)
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
		if *stats {
			fmt.Printf("%-24s %6s %6s\n", "directive", "count", "stale")
			for _, c := range rep.Inventory {
				fmt.Printf("%-24s %6d %6d\n", c.Name, c.Count, c.Stale)
			}
		}
	}
	if n := len(rep.Findings); n > 0 {
		fmt.Fprintf(os.Stderr, "finemoe-lint: %d problem(s)\n", n)
		os.Exit(1)
	}
}
