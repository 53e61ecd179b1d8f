// Command kfvet runs the kflushing static analysis suite
// (internal/analyze) over the module: the per-package analyzers —
// locksafe (lock release on all paths, no blocking under hot locks,
// lock-order DAG) and errlint (no discarded durability errors) — and
// the cross-package protocol analyzers — allocfree (//kfvet:noalloc hot
// paths stay allocation-free through the call graph), failpointcov
// (fallible I/O sits adjacent to a cataloged failpoint), lockinfer
// (lock-order inversions through call chains) and seqlockcheck
// (//kfvet:seqlock writer/reader protocol shapes).
//
// Usage:
//
//	kfvet [packages]
//
// Packages follow the go tool's pattern syntax; the default is ./...
// from the current directory. Findings print as
// file:line:col: [analyzer] message, one per line, and a non-empty
// report exits 1.
//
// kfvet is part of the tier-1 loop — run it with vet before
// committing:
//
//	go vet ./... && go run ./cmd/kfvet ./...
//
// See DESIGN.md §7.3 for the per-package analyzer contracts and the
// lock-order DAG, and §7.8 for the cross-package protocol analyzers.
package main

import (
	"flag"
	"fmt"
	"os"

	"kflushing/internal/analyze"
)

func main() {
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analyze.LoadModule(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kfvet:", err)
		os.Exit(2)
	}
	findings := analyze.Run(pkgs, analyze.DefaultConfig())
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "kfvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
