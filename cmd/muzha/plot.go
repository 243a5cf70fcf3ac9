package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"muzha"
	"muzha/internal/plot"
)

// plots maps each figure family `muzha plot` renders to its renderer:
//
//	fig5.2-5.7_cwnd_<h>hop.svg          congestion window traces
//	fig5.8-5.10_throughput_w<w>.svg     throughput vs hops
//	fig5.11-5.13_retransmissions_w<w>.svg
//	fig5.19-5.22_dynamics_<variant>.svg throughput dynamics
var plots = map[string]func(out io.Writer, dir string, variants []muzha.Variant, seed int64) error{
	"cwnd":       plotCwnd,
	"throughput": plotThroughput,
	"dynamics":   plotDynamics,
}

// cmdPlot regenerates the paper's figures as SVG files: every family,
// or the one named.
func cmdPlot(args []string, _ io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("muzha plot", flag.ContinueOnError)
	dir := fs.String("out", "figures", "output directory for SVG files")
	seed := fs.Int64("seed", 1, "base random seed")
	families, err := parse(fs, args, 0, 1, "[cwnd|throughput|dynamics] ")
	if err != nil {
		return err
	}
	if len(families) == 0 {
		families = []string{"cwnd", "throughput", "dynamics"}
	} else if plots[families[0]] == nil {
		return fmt.Errorf("unknown figure family %q (have cwnd, throughput, dynamics)", families[0])
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	for _, f := range families {
		if err := plots[f](out, *dir, paperVariants, *seed); err != nil {
			return err
		}
	}
	return nil
}

func writeChart(out io.Writer, dir, name string, c *plot.Chart) error {
	svg, err := c.SVG()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(out, "wrote", path)
	return nil
}

func plotCwnd(out io.Writer, dir string, variants []muzha.Variant, seed int64) error {
	hops := []int{4, 8, 16}
	traces, err := muzha.CwndTraces(hops, variants, 10*time.Second, seed)
	if err != nil {
		return err
	}
	for _, h := range hops {
		chart := &plot.Chart{
			Title:  fmt.Sprintf("Change of Congestion Window Size (%d-hop chain)", h),
			XLabel: "time (s)",
			YLabel: "cwnd (segments)",
		}
		for _, tr := range traces {
			if tr.Hops != h {
				continue
			}
			s := plot.Series{Name: string(tr.Variant)}
			for _, p := range muzha.SampleTrace(tr.Trace, 100*time.Millisecond, 10*time.Second) {
				s.X = append(s.X, p.At.Seconds())
				s.Y = append(s.Y, p.Value)
			}
			chart.Series = append(chart.Series, s)
		}
		if err := writeChart(out, dir, fmt.Sprintf("fig5.2-5.7_cwnd_%dhop.svg", h), chart); err != nil {
			return err
		}
	}
	return nil
}

func plotThroughput(out io.Writer, dir string, variants []muzha.Variant, seed int64) error {
	sweep := muzha.DefaultChainSweep()
	sweep.Variants = variants
	sweep.Seeds = []int64{seed, seed + 1, seed + 2}
	rows, err := muzha.ThroughputVsHops(sweep)
	if err != nil {
		return err
	}
	for _, w := range sweep.Windows {
		thr := &plot.Chart{
			Title:  fmt.Sprintf("Throughput vs Number of Hops (window_=%d)", w),
			XLabel: "hops",
			YLabel: "throughput (bit/s)",
		}
		rex := &plot.Chart{
			Title:  fmt.Sprintf("Retransmissions vs Number of Hops (window_=%d)", w),
			XLabel: "hops",
			YLabel: "retransmitted segments",
		}
		for _, v := range variants {
			st := plot.Series{Name: string(v)}
			sr := plot.Series{Name: string(v)}
			for _, r := range rows {
				if r.Window != w || r.Variant != v {
					continue
				}
				st.X = append(st.X, float64(r.Hops))
				st.Y = append(st.Y, r.ThroughputBps)
				sr.X = append(sr.X, float64(r.Hops))
				sr.Y = append(sr.Y, r.Retransmissions)
			}
			thr.Series = append(thr.Series, st)
			rex.Series = append(rex.Series, sr)
		}
		if err := writeChart(out, dir, fmt.Sprintf("fig5.8-5.10_throughput_w%d.svg", w), thr); err != nil {
			return err
		}
		if err := writeChart(out, dir, fmt.Sprintf("fig5.11-5.13_retransmissions_w%d.svg", w), rex); err != nil {
			return err
		}
	}
	return nil
}

func plotDynamics(out io.Writer, dir string, variants []muzha.Variant, seed int64) error {
	results, err := muzha.ThroughputDynamics(variants, 30*time.Second, time.Second, seed)
	if err != nil {
		return err
	}
	for _, dr := range results {
		chart := &plot.Chart{
			Title:  fmt.Sprintf("Throughput Dynamics, three %s flows", dr.Variant),
			XLabel: "time (s)",
			YLabel: "throughput (bit/s)",
		}
		for fi, series := range dr.Series {
			s := plot.Series{Name: fmt.Sprintf("flow %d", fi+1)}
			for _, p := range series {
				s.X = append(s.X, p.At.Seconds())
				s.Y = append(s.Y, p.Value)
			}
			chart.Series = append(chart.Series, s)
		}
		if err := writeChart(out, dir, fmt.Sprintf("fig5.19-5.22_dynamics_%s.svg", dr.Variant), chart); err != nil {
			return err
		}
	}
	return nil
}
