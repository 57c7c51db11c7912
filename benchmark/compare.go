package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json that -compare needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runCompare applies BENCHMARK.json's bounds to two result files, a the
// reference and b the candidate, one row per (workload, metric):
//
//	worse       b's median is worse than a's by more than the bound
//	unresolved  either side's inter-quartile range is wider than the bound,
//	            so the run-to-run spread cannot resolve a change that size
//	same        neither
//
// It exits 1 if any row is worse or unresolved.
func runCompare(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var a, b resultFile
	for path, v := range map[string]any{specPath: &spec, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	bad := 0
	fmt.Fprintf(stdout, "%-12s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wl := range spec.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(stdout, "%-12s missing from one of the files\n", wl.Name)
			bad++
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, okA := wa.EndToEnd[m.Name]
			mb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB || ma.Value == 0 {
				fmt.Fprintf(stdout, "%-12s %-18s missing from one of the files\n", wl.Name, m.Name)
				bad++
				continue
			}
			// change > 0 means b is worse.
			change := (mb.Value - ma.Value) / ma.Value
			if m.Better == "higher" {
				change = -change
			}
			verdict := "same"
			switch {
			case ma.IQR/ma.Value > m.Bound || mb.IQR/mb.Value > m.Bound:
				verdict = "unresolved"
				bad++
			case change > m.Bound:
				verdict = "worse"
				bad++
			}
			fmt.Fprintf(stdout, "%-12s %-18s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, ma.Value, mb.Value, 100*change, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d rows worse or unresolved\n", bad)
		return 1
	}
	return 0
}
