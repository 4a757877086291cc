package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// loadSets reads every result-set file (*.json) of dir, in name order.
func loadSets(dir string) ([]resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var sets []resultSet
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s resultSet
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		sets = append(sets, s)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	return sets, nil
}

// series collects one (workload, metric) value per set, in set order.
func series(sets []resultSet) map[[2]string][]float64 {
	out := map[[2]string][]float64{}
	for _, s := range sets {
		for w, res := range s.Workloads {
			for m, v := range res.Metrics {
				k := [2]string{w, m}
				out[k] = append(out[k], v.Value)
			}
		}
	}
	return out
}

// verdict judges change b against base a for one metric: "regressed"
// when b's median is worse than a's by more than the bound, "unresolved"
// when a's own spread (quartile distance over median) is wider than the
// bound and not every run of b beats every run of a, else
// "within-bound". Per-layer metrics have no bound and get "-".
func verdict(def metricDef, a, b []float64) string {
	if def.Bound == 0 || len(a) == 0 || len(b) == 0 {
		return "-"
	}
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if def.Better == "higher" {
		worse = (ma - mb) / ma
	}
	if worse > def.Bound {
		return "regressed"
	}
	if q1, _, q3, ok := quartiles(a); ok && (q3-q1)/ma > def.Bound && !allBetter(def, a, b) {
		return "unresolved"
	}
	return "within-bound"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(def metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (def.Better == "lower" && y >= x) || (def.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

// wins counts the pairs (a[i], b[i]) in which b is better; ties count for
// neither.
func wins(def metricDef, a, b []float64) int {
	n := 0
	for i := 0; i < min(len(a), len(b)); i++ {
		if (def.Better == "lower" && b[i] < a[i]) || (def.Better == "higher" && b[i] > a[i]) {
			n++
		}
	}
	return n
}

// compareDirs prints, per workload and metric, each side's median and
// quartiles, the change of the medians, b's pairwise wins and the
// verdict. It exits 1 when any metric regressed.
func compareDirs(dirA, dirB string, stdout, stderr io.Writer) int {
	a, err := loadSets(dirA)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	b, err := loadSets(dirB)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	sa, sb := series(a), series(b)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tn\ta median [q1, q3]\tb median [q1, q3]\tchange\tb wins\tbound\tverdict\n")
	code := 0
	for _, w := range workloads {
		for _, table := range [][]metricDef{endToEnd, perLayer} {
			for _, def := range table {
				k := [2]string{w.name, def.Name}
				xa, xb := sa[k], sb[k]
				if len(xa) == 0 && len(xb) == 0 {
					continue
				}
				v := verdict(def, xa, xb)
				if v == "regressed" {
					code = 1
				}
				change := "-"
				if ma := median(xa); ma != 0 && len(xb) > 0 {
					change = fmt.Sprintf("%+.1f%%", 100*(median(xb)-ma)/ma)
				}
				bound := "-"
				if def.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*def.Bound)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%s\t%s\t%s\t%d/%d\t%s\t%s\n", w.name, def.Name, def.Unit,
					len(xa), len(xb), spread(xa), spread(xb), change, wins(def, xa, xb), min(len(xa), len(xb)), bound, v)
			}
		}
	}
	tw.Flush()
	return code
}

// spread formats a sample as "median [q1, q3]".
func spread(xs []float64) string {
	switch len(xs) {
	case 0:
		return "-"
	case 1:
		return fmt.Sprintf("%.4g", xs[0])
	}
	q1, q2, q3, _ := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}
