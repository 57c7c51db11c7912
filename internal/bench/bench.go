// Package bench contains one harness per table and figure of the paper's
// evaluation (§VI and the appendix). Each harness regenerates the artifact's
// rows/series — workload, parameter sweep, baselines and all — and prints
// them in the paper's layout. cmd/sesemi-bench and the top-level
// bench_test.go both drive this package.
//
// The package also hosts LiveWorld (world.go), the in-process deployment
// that loadgen -local and examples/multitenant drive. Serving performance is
// measured by the separate benchmark/ module, not here.
package bench

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one runnable artifact reproduction.
type Experiment struct {
	// ID is the short name used on the command line (e.g. "fig9").
	ID string
	// Title describes the paper artifact.
	Title string
	// Run regenerates the artifact, printing to w.
	Run func(w io.Writer) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
