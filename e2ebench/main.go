// Command e2ebench measures SIES end to end. It forms a live loopback-TCP
// tree from the transport package's public API, drives it open-loop at a
// fixed epoch rate from one seeded generator goroutine, checks every answer
// against the exact SUM and prints one JSON result line: the end-to-end
// metrics with --trace 0, the per-layer breakdown with --trace 1.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash e2ebench/run.sh --workload star-64 --seed 1 --seconds 20 --trace 0
//
// LAYERS.md explains the workloads, every metric and which end-to-end metric
// each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one tree shape driven at one fixed epoch rate.
type workload struct {
	name    string
	sources int     // N, the deployment size
	rate    float64 // epochs per second, paced open-loop
	wide    bool    // the generator plays the root's two subtree aggregators
}

// workloads lists the trees BENCHMARK.json declares. At wide-4k's rate
// every epoch starts from idle vCPUs; at 200 or 400 epochs/s whether a vCPU
// is still awake from the previous epoch's prefetch depends on the host, and
// the median latency swung with it (LAYERS.md).
var workloads = []workload{
	{name: "star-64", sources: 64, rate: 1000},
	{name: "wide-4k", sources: 4096, rate: 50, wide: true},
}

const (
	// formations is how many formations of the tree an untraced run times;
	// setup_s is the mean of their middle half, since one formation varies
	// by tens of percent and on wide-4k falls near one of two values a
	// millisecond apart, which a median would flip between from run to run.
	formations = 31
	// formationIdle is the idle time before each timed formation, so each
	// one starts from idle vCPUs, as a deployment's formation does. Back to
	// back, star-64's formations took about 3.5 or about 5 ms, as the vCPUs
	// were still awake or not, and setup_s spread 0.32 over six runs; with
	// 100 ms idle before each it spread 0.06.
	formationIdle = 100 * time.Millisecond
	// warmup is the paced lead-in before the measured window: it fills the
	// querier's derivation engines and the schedule's prefetch.
	warmup = time.Second
	// answerGrace bounds how long after the last due time the window's
	// epochs may still be answered; later ones count as failed. It exceeds
	// the aggregator's 2 s child timeout.
	answerGrace = 5 * time.Second
)

// resultsDir is where traced runs write their layer tables.
var resultsDir = filepath.Join("e2ebench", "results")

type options struct {
	w         workload
	seed      uint64
	seconds   int
	stateRoot string // parent of the durable replay's state directory
	rev       string
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: star-64 or wide-4k")
	seed := flag.Uint64("seed", 1, "seed for the readings")
	seconds := flag.Int("seconds", 45, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
	state := flag.String("state", filepath.Join(".bench_build", "e2ebench", "state"), "directory for the durable replay's state")
	rev := flag.String("rev", "unknown", "git revision of the code under test")
	flag.Parse()

	opt := options{seed: *seed, seconds: *seconds, stateRoot: *state, rev: *rev}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			opt.w, found = w, true
		}
	}
	switch {
	case !found:
		return fmt.Errorf("unknown workload %q", *name)
	case opt.seconds < 1:
		return errors.New("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return errors.New("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(opt.stateRoot, 0o755); err != nil {
		return err
	}
	prov := provenance(opt)

	if *trace == 0 {
		p, err := measure(opt, formations, false, nil)
		if err != nil {
			return err
		}
		prov["harness_tables_mib"] = p.tab.mib()
		prov["host_steal_pct"] = p.stealPct()
		bounded, tail := endToEnd(p)
		return report(prov, p, bounded, tail)
	}
	if err := checkWireLayout(); err != nil {
		return err
	}
	// The untraced pass is the baseline the tracing overhead is taken from.
	plain, err := measure(opt, 0, false, nil)
	if err != nil {
		return err
	}
	traced, err := measure(opt, 0, true, plain)
	if err != nil {
		return err
	}
	prov["harness_tables_mib"] = traced.tab.mib()
	prov["host_steal_pct"] = traced.stealPct()
	metrics := perLayer(traced, plain)
	if err := writeLayerTable(opt, prov, traced, metrics); err != nil {
		return err
	}
	return report(prov, traced, metrics, nil)
}

// metric is one reported value with its unit, plus the distribution it was
// taken from (printed in the provenance line, not in the result line).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	dist  dist
}

// dist summarises the samples behind a metric.
type dist struct {
	Median, Q1, Q3 float64
	N              int
}

func distOf(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// quantile interpolates the q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	if math.IsInf(sorted[lo+1], 1) {
		if frac == 0 {
			return sorted[lo]
		}
		return sorted[lo+1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// endToEnd derives the user-facing metrics from an untraced pass: the four
// the result line carries, and the tail percentiles, which repeat too poorly
// on a shared 2-vCPU host to carry a bound and are printed only in the
// provenance line (LAYERS.md has the measurements).
func endToEnd(p *pass) (bounded, tail map[string]metric) {
	lat := distOf(p.latencies())
	bounded = map[string]metric{
		"setup_s":          {Value: midMean(p.setup), Unit: "s", dist: distOf(p.setup)},
		"answer_p50_ms":    {Value: p.latencyQuantile(0.50), Unit: "ms", dist: lat},
		"cpu_ms_per_epoch": {Value: p.cpuMsPerEpoch(), Unit: "ms", dist: distOf(p.cpuSlices)},
		"peak_rss_mb":      {Value: p.peakRSS, Unit: "MiB", dist: dist{Median: p.peakRSS, Q1: p.peakRSS, Q3: p.peakRSS, N: 1}},
	}
	tail = map[string]metric{
		"answer_p95_ms": {Value: p.latencyQuantile(0.95), Unit: "ms", dist: lat},
		"answer_p99_ms": {Value: p.latencyQuantile(0.99), Unit: "ms", dist: lat},
	}
	return bounded, tail
}

func median(xs []float64) float64 { return distOf(xs).Median }

// midMean is the mean of the middle half of xs: the samples between the
// first and third quartiles by rank.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// report prints the provenance line, with every metric's distribution and
// the informational extras, then the result line, which must come last.
func report(prov map[string]any, p *pass, metrics, extra map[string]metric) error {
	stats := map[string]any{}
	for _, set := range []map[string]metric{metrics, extra} {
		for name, m := range set {
			d := m.dist
			stats[name] = map[string]any{"value": m.Value, "unit": m.Unit, "median": d.Median, "q1": d.Q1, "q3": d.Q3, "n": d.N}
		}
	}
	line, err := json.Marshal(map[string]any{"provenance": prov, "stats": stats})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   true, // a wrong or double-counted SUM aborts before this point
		"attempted": p.attempted(),
		"failed":    p.failedOps(),
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
