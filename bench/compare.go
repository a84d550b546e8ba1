package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// loadReports reads a -repeat results file.
func loadReports(path string) ([]*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reports []*report
	if err := json.Unmarshal(b, &reports); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reports, nil
}

func compareFiles(man *manifest, a, b string) error {
	ra, err := loadReports(a)
	if err != nil {
		return err
	}
	rb, err := loadReports(b)
	if err != nil {
		return err
	}
	return compare(man, ra, rb)
}

// series gathers one metric's values over the untraced runs of one
// workload, in run order.
func series(reports []*report, workload, name string) []float64 {
	var out []float64
	for _, r := range reports {
		if r.Workload != workload || r.Traced {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a delta has to clear.
func spread(values []float64) (med, q1, q3, share float64) {
	if len(values) < 2 {
		return median(values), 0, 0, 0
	}
	q1, med, q3 = quartiles(values)
	if med != 0 {
		share = (q3 - q1) / med
	}
	return med, q1, q3, share
}

// compare prints, per workload and end-to-end metric, each side's median
// and quartiles, the change from a to b in the metric's worse direction,
// and a verdict against the bound BENCHMARK.json fixes:
//
//	ok          b's median is no worse than a's by more than the bound
//	regressed   it is
//	unresolved  either side's spread is wider than the bound, so the
//	            runs cannot tell
//
// Per-layer metrics follow with medians only; they carry no bound.
func compare(man *manifest, a, b []*report) error {
	failed := 0
	for _, set := range [][]*report{a, b} {
		for _, r := range set {
			failed += r.Failed
		}
	}
	fmt.Printf("\n%-12s %-24s %12s %12s %12s | %12s %12s %12s | %8s %8s %6s  %s\n",
		"workload", "metric", "a.q1", "a.median", "a.q3", "b.q1", "b.median", "b.q3", "spread", "worse", "bound", "verdict")
	regressed := 0
	for _, w := range man.Workloads {
		for _, d := range man.EndToEnd {
			va, vb := series(a, w.Name, d.Name), series(b, w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, a1, a3, sa := spread(va)
			mb, b1, b3, sb := spread(vb)
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
				if d.Better == "higher" {
					worse = -worse
				}
			}
			verdict := "ok"
			switch {
			case max(sa, sb) > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Printf("%-12s %-24s %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f | %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, a1, ma, a3, b1, mb, b3, 100*max(sa, sb), 100*worse, 100*d.Bound, verdict)
		}
	}
	fmt.Printf("\n%-12s %-46s %14s %14s\n", "workload", "per-layer metric (no bound)", "a.median", "b.median")
	for _, w := range man.Workloads {
		for _, d := range man.PerLayer {
			va, vb := series(a, w.Name, d.Name), series(b, w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			fmt.Printf("%-12s %-46s %14.4f %14.4f %s\n", w.Name, d.Name, median(va), median(vb), d.Unit)
		}
	}
	fmt.Printf("\nfailed operations over both sets: %d\n", failed)
	if regressed > 0 || failed > 0 {
		return fmt.Errorf("%d regressed metrics, %d failed operations", regressed, failed)
	}
	return nil
}
