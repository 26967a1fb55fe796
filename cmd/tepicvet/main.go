// Command tepicvet runs the repo's own analyzer suite — the four
// invariants go vet cannot see: allocation-free //tepic:hotpath
// functions, sentinel-wrapped errors in the taxonomy packages,
// pool-scoped concurrency, and stable verifier check IDs. It exits non-zero when any finding survives, so
// CI runs it as a gate next to go vet and staticcheck.
//
// Usage:
//
//	tepicvet ./...
//	tepicvet -list
//	tepicvet ./internal/huffman ./internal/bitio
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/anz"
	"repro/internal/cliio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the checker against args, writing to out (separated from
// main for testing).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tepicvet", flag.ContinueOnError)
	list := fs.Bool("list", false, "print the analyzer catalog and exit")
	only := fs.String("only", "", "run a single analyzer by name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := cliio.New(out)

	suite := analysis.Suite()
	if *list {
		for _, a := range suite {
			w.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return w.Err()
	}
	if *only != "" {
		var picked []*anz.Analyzer
		for _, a := range suite {
			if a.Name == *only {
				picked = append(picked, a)
			}
		}
		if len(picked) == 0 {
			return fmt.Errorf("tepicvet: no analyzer named %q (see -list)", *only)
		}
		suite = picked
	}

	patterns := fs.Args()
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	prog, err := anz.LoadPatterns(wd, patterns...)
	if err != nil {
		return err
	}
	findings, err := anz.Run(prog, suite)
	if err != nil {
		return err
	}
	for _, f := range findings {
		w.Println(f.String())
	}
	if n := len(findings); n > 0 {
		return fmt.Errorf("tepicvet: %d finding(s)", n)
	}
	return w.Err()
}
