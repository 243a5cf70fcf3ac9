package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// summary is the spread of one metric over several runs.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Runs   int     `json:"runs"`
	Unit   string  `json:"unit"`
}

// summarizeReports prints, per workload and trace mode, the median and
// quartiles of every metric over the reports in dir, stamped with the
// hosts they were measured on: the recorded baseline.
func summarizeReports(dir string, w io.Writer) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no reports in %s", dir)
	}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	hosts := map[host]bool{}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if len(r.Failures) > 0 {
			return fmt.Errorf("%s: a failed run is no baseline", path)
		}
		hosts[r.Host] = true
		group := r.Workload
		if r.Trace {
			group += "/trace"
		}
		if values[group] == nil {
			values[group] = map[string][]float64{}
		}
		for _, ms := range []map[string]metric{r.Metrics, r.Extra} {
			for k, m := range ms {
				values[group][k] = append(values[group][k], m.Value)
				units[k] = m.Unit
			}
		}
	}
	out := struct {
		Recorded string                        `json:"recorded"`
		Hosts    []host                        `json:"hosts"`
		Metrics  map[string]map[string]summary `json:"metrics"`
	}{Recorded: time.Now().UTC().Format(time.DateOnly), Metrics: map[string]map[string]summary{}}
	for h := range hosts {
		out.Hosts = append(out.Hosts, h)
	}
	for group, ms := range values {
		out.Metrics[group] = map[string]summary{}
		for k, xs := range ms {
			q1, q3 := quartiles(xs)
			out.Metrics[group][k] = summary{Median: median(xs), Q1: q1, Q3: q3, Runs: len(xs), Unit: units[k]}
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
