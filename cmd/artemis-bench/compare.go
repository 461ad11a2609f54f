package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// loadRuns reads the untraced runs of a comma-separated list of results
// files.
func loadRuns(list string) ([]record, error) {
	var out []record
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var res results
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range res.Runs {
			if !r.Traced {
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// verdict compares one metric's runs on two commits by the rule of the
// choosing-metrics guide: worse by more than the bound is a regression;
// when either side's quartile spread exceeds the bound the metric is
// unresolved, unless every new run beats every old one. change is the
// relative move of the medians, positive when the metric got worse.
func verdict(old, cur []float64, better string, bound float64) (change float64, word string) {
	mo, mn := median(old), median(cur)
	worse := func(a, b float64) bool { // a is worse than b
		if better == "higher" {
			return a < b
		}
		return a > b
	}
	change = (mn - mo) / mo
	if better == "higher" {
		change = -change
	}
	if spread(old) > bound || spread(cur) > bound {
		for _, n := range cur {
			for _, o := range old {
				if !worse(o, n) {
					return change, "unresolved"
				}
			}
		}
		return change, "better"
	}
	if change > bound {
		return change, "REGRESSED"
	}
	return change, "ok"
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// compareFiles prints one row per workload with every end-to-end metric's
// change and verdict, and reports whether any metric regressed.
func compareFiles(benchPath, oldList, newList string, w io.Writer) (bool, error) {
	bf, err := loadBenchmark(benchPath)
	if err != nil {
		return false, err
	}
	old, err := loadRuns(oldList)
	if err != nil {
		return false, err
	}
	cur, err := loadRuns(newList)
	if err != nil {
		return false, err
	}
	values := func(runs []record, workload, metric string) []float64 {
		var out []float64
		for _, r := range runs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
				out = append(out, v.Value)
			}
		}
		return out
	}
	regressed := false
	fmt.Fprintf(w, "change = move of the median, positive = worse; bound and verdict from %s\n", benchPath)
	for _, wl := range bf.Workloads {
		var cells []string
		for _, m := range bf.EndToEnd {
			o, n := values(old, wl.Name, m.Name), values(cur, wl.Name, m.Name)
			if len(o) == 0 || len(n) == 0 {
				cells = append(cells, fmt.Sprintf("%s missing (%d old, %d new runs)", m.Name, len(o), len(n)))
				continue
			}
			change, word := verdict(o, n, m.Better, m.Bound)
			regressed = regressed || word == "REGRESSED"
			cells = append(cells, fmt.Sprintf("%s %+.1f%% %s", m.Name, 100*change, word))
		}
		fmt.Fprintf(w, "%-7s %s\n", wl.Name, strings.Join(cells, " | "))
	}
	return regressed, nil
}
