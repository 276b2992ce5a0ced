package main

import (
	"fmt"
	"io"
	"strings"
)

// repeatSets runs n full gated sets, alternating the workload order so
// no workload always runs on a cold or a warm process, and prints for
// every (metric, workload) pair the n values, their median, their
// interquartile spread as a share of the median, and the bound. A pair
// whose spread exceeds its bound is flagged: the fix is a longer
// window, never a wider bound.
func repeatSets(todo []workload, cfg runConfig, n int, stdout, stderr io.Writer) int {
	values := map[string][]float64{} // "workload metric" -> one value per set
	code := 0
	for set := 0; set < n; set++ {
		order := append([]workload(nil), todo...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, wl := range order {
			c := cfg
			c.seed = cfg.seed + int64(set)
			res, err := runGated(wl, c)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl.name, err)
				return 1
			}
			fmt.Fprintf(stdout, "# set %d of %d, seed %d\n", set+1, n, c.seed)
			if !res.print(stdout, stderr) {
				code = 1
			}
			for _, m := range endToEnd {
				key := wl.name + " " + m.name
				values[key] = append(values[key], res.metrics[m.name])
			}
		}
	}

	fmt.Fprintf(stdout, "\n%-16s %-16s %12s %8s %6s  %s\n", "workload", "metric", "median", "spread", "bound", "values")
	for _, wl := range todo {
		for _, m := range endToEnd {
			vals := values[wl.name+" "+m.name]
			spread := relSpread(vals)
			flag := ""
			if spread > m.bound && m.name != "setup_s" {
				flag = "  SPREAD EXCEEDS BOUND"
				code = 1
			}
			strs := make([]string, len(vals))
			for i, v := range vals {
				strs[i] = fmt.Sprintf("%.4g", v)
			}
			fmt.Fprintf(stdout, "%-16s %-16s %12.4f %8.4f %6.3f  %s%s\n",
				wl.name, m.name, median(vals), spread, m.bound, strings.Join(strs, " "), flag)
		}
	}
	return code
}
