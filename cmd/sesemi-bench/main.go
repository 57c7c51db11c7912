// Command sesemi-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	sesemi-bench -list
//	sesemi-bench -exp fig9
//	sesemi-bench -exp all [-o results.txt]
//
// Serving performance is measured by the benchmark/ module (bash
// benchmark/run.sh), not by this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sesemi/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	out := flag.String("o", "", "write output to this file instead of stdout")
	list := flag.Bool("list", false, "list available experiments")
	flag.Parse()

	if *list {
		fmt.Println("available experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-20s %s\n", e.ID, e.Title)
		}
		return
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	if *exp == "all" {
		for _, e := range bench.All() {
			if err := e.Run(w); err != nil {
				fatal(fmt.Errorf("%s: %w", e.ID, err))
			}
		}
		return
	}
	e, ok := bench.Lookup(*exp)
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q (use -list)", *exp))
	}
	if err := e.Run(w); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sesemi-bench:", err)
	os.Exit(1)
}
