// Command siesbench regenerates every table and figure of the paper's
// evaluation (§V–§VI) on the local machine and prints them side by side with
// the paper's reference values.
//
// Usage:
//
//	siesbench -all               # every experiment
//	siesbench -table 2           # Table II  (micro-cost constants)
//	siesbench -table 3           # Table III (analytical costs, typical values)
//	siesbench -table 5           # Table V   (communication cost per edge)
//	siesbench -figure 4          # Figure 4  (source CPU vs domain)
//	siesbench -figure 5          # Figure 5  (aggregator CPU vs fanout)
//	siesbench -figure 6a         # Figure 6a (querier CPU vs N)
//	siesbench -figure 6b         # Figure 6b (querier CPU vs domain)
//	siesbench -hotpath           # zero-allocation hot-path kernel sweep
//	siesbench -cluster           # live-cluster epochs/sec sweep
//	siesbench -aggmerge          # sharded aggregator merge-plane sweep
//	siesbench -quick ...         # smaller sweeps for a fast smoke run
//	siesbench -json ...          # also write machine-readable BENCH_<suite>.json
//	siesbench -cluster -baseline BENCH_transport.json    # CI regression gate
//
// Absolute numbers differ from the paper (different machine, Go stdlib
// instead of GMP/OpenSSL); the shapes — who wins, by what factor, where the
// curves bend — are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/sies/sies/internal/cmt"
	"github.com/sies/sies/internal/commitattest"
	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/costmodel"
	"github.com/sies/sies/internal/network"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/rsax"
	"github.com/sies/sies/internal/secoa"
	"github.com/sies/sies/internal/sketch"
	"github.com/sies/sies/internal/workload"
)

var (
	flagTable    = flag.String("table", "", "table to regenerate: 2, 3, or 5")
	flagFigure   = flag.String("figure", "", "figure to regenerate: 4, 5, 6a, or 6b")
	flagAll      = flag.Bool("all", false, "regenerate every table and figure")
	flagQuick    = flag.Bool("quick", false, "smaller sweeps for a fast smoke run")
	flagExtra    = flag.Bool("extra", false, "run the extra commit-and-attest scalability experiment")
	flagSchedule = flag.Bool("schedule", false, "run the querier key-schedule engine sweep")
	flagCPUProf  = flag.String("cpuprofile", "", "write a CPU profile of the selected benchmarks to this file")
)

func main() {
	flag.Parse()
	if *flagCPUProf != "" {
		f, err := os.Create(*flagCPUProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}
	if !*flagAll && *flagTable == "" && *flagFigure == "" && !*flagExtra && !*flagSchedule && !*flagHotpath && !*flagCluster && !*flagAggMerge {
		flag.Usage()
		os.Exit(2)
	}
	run := func(name string, f func() error) {
		fmt.Printf("\n================ %s ================\n", name)
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s regenerated in %v)\n", name, time.Since(start).Round(time.Millisecond))
	}
	if *flagAll || *flagTable == "2" {
		run("Table II — micro-cost constants", table2)
	}
	if *flagAll || *flagTable == "3" {
		run("Table III — costs using typical values", table3)
	}
	if *flagAll || *flagFigure == "4" {
		run("Figure 4 — source CPU vs domain", figure4)
	}
	if *flagAll || *flagFigure == "5" {
		run("Figure 5 — aggregator CPU vs fanout", figure5)
	}
	if *flagAll || *flagFigure == "6a" {
		run("Figure 6(a) — querier CPU vs N", figure6a)
	}
	if *flagAll || *flagFigure == "6b" {
		run("Figure 6(b) — querier CPU vs domain", figure6b)
	}
	if *flagAll || *flagTable == "5" {
		run("Table V — communication cost per edge", table5)
	}
	if *flagAll || *flagExtra {
		run("Extra — commit-and-attest verification scalability (paper §II-B claim)", extraScalability)
	}
	if *flagAll || *flagSchedule {
		run("Extra — querier key-schedule engine (parallel derivation + cache)", scheduleSweep)
	}
	if *flagAll || *flagHotpath {
		run("Extra — zero-allocation hot-path kernels (lazy merge + Deriver)", hotpath)
	}
	if *flagAll || *flagCluster {
		run("Extra — live cluster over loopback TCP (epochs/sec, allocs/epoch)", transportBench)
	}
	if *flagAll || *flagAggMerge {
		run("Extra — sharded aggregator merge plane (fanout × shard sweep)", aggmergeBench)
	}
	if len(transportRows) > 0 {
		if err := flushTransportRows(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// scheduleSweep measures the key-schedule engine against the paper's Θ(N)
// querier bottleneck (Table 3): sequential per-epoch derivation, the worker-
// pool fan-out at several widths, and the cached repeat path that duplicate
// sinks and retransmissions hit.
func scheduleSweep() error {
	ns := []int{256, 1024, 4096}
	if *flagQuick {
		ns = ns[:2]
	}
	workerSet := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		workerSet = append(workerSet, g)
	}
	fmt.Printf("(GOMAXPROCS = %d; parallel speedups need that many physical cores)\n\n",
		runtime.GOMAXPROCS(0))
	fmt.Printf("%-8s %14s", "N", "seq prep")
	for _, w := range workerSet {
		fmt.Printf(" %13s", fmt.Sprintf("prep P=%d", w))
	}
	fmt.Printf(" %14s %12s\n", "cached eval", "vs re-derive")
	for _, n := range ns {
		q, sources, err := core.Setup(n)
		if err != nil {
			return err
		}
		agg := core.NewAggregator(q.Params().Field())
		var final core.PSR
		for _, s := range sources {
			psr, err := s.Encrypt(1, 3000)
			if err != nil {
				return err
			}
			final = agg.MergeInto(final, psr)
		}

		var epoch prf.Epoch // unique epochs keep derivation sweeps cache-cold
		seq := measure(func(k int) {
			for i := 0; i < k; i++ {
				epoch++
				if _, err := q.PrepareEpoch(epoch, nil); err != nil {
					panic(err)
				}
			}
		})
		par := make([]float64, len(workerSet))
		for wi, w := range workerSet {
			sched := core.NewSchedule(q, core.ScheduleConfig{Workers: w, CacheSize: 4})
			par[wi] = measure(func(k int) {
				for i := 0; i < k; i++ {
					epoch++
					if _, err := sched.EpochState(epoch, nil); err != nil {
						panic(err)
					}
				}
			})
		}
		hot := core.NewSchedule(q, core.ScheduleConfig{})
		if _, err := hot.Evaluate(1, final, nil); err != nil {
			return err
		}
		cached := measure(func(k int) {
			for i := 0; i < k; i++ {
				if _, err := hot.Evaluate(1, final, nil); err != nil {
					panic(err)
				}
			}
		})
		rederive := measure(func(k int) {
			for i := 0; i < k; i++ {
				if _, err := q.Evaluate(1, final); err != nil {
					panic(err)
				}
			}
		})

		fmt.Printf("%-8d %14s", n, fmtDur(seq))
		for _, p := range par {
			fmt.Printf(" %13s", fmtDur(p))
		}
		fmt.Printf(" %14s %11.0fx\n", fmtDur(cached), rederive/cached)
		st := hot.Stats()
		fmt.Printf("         counters: derivations=%d hits=%d misses=%d avg-eval=%v\n",
			st.Derivations, st.Hits, st.Misses, st.AvgEvalTime().Round(10*time.Nanosecond))
	}
	fmt.Println("\nShape check: cached repeat evaluation is orders of magnitude below the")
	fmt.Println("Θ(N)-HMAC re-derivation; parallel prep scales with cores where available.")
	return nil
}

// extraScalability quantifies why the paper dismisses the commit-and-attest
// model: its attestation traffic, latency rounds and sensor participation
// all grow with N, while SIES verification involves no sensors at all and
// costs one constant 32-byte message per edge.
func extraScalability() error {
	ns := []int{64, 256, 1024, 4096}
	if *flagQuick {
		ns = ns[:3]
	}
	fmt.Printf("%-8s %16s %14s %10s %18s %14s\n",
		"N", "C&A attest bytes", "C&A rounds", "C&A msgs", "sensor hash ops", "SIES per edge")
	rng := rand.New(rand.NewSource(1))
	for _, n := range ns {
		topo, err := network.CompleteTree(n, 4)
		if err != nil {
			return err
		}
		d, err := commitattest.New(topo)
		if err != nil {
			return err
		}
		vals := workload.UniformReadings(n, workload.Scale100, rng)
		_, st, err := d.RunEpoch(1, vals, commitattest.NoAdversary())
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %16s %14d %10d %18d %14s\n",
			n, fmtBytes(float64(st.AttestBytes)), st.Rounds,
			st.CommitMsgs+st.AttestMsgs, st.SensorHashes, "32 B, 0 rounds")
	}
	fmt.Println("\nShape check: commit-and-attest attestation traffic grows superlinearly in N;")
	fmt.Println("SIES verification is sensor-free and constant per edge (§II-B motivation).")
	return nil
}

// measure times f (which must perform n operations per call) and returns
// seconds per operation, adaptively scaling n.
func measure(f func(n int)) float64 {
	target := 100 * time.Millisecond
	if *flagQuick {
		target = 20 * time.Millisecond
	}
	n := 1
	for {
		start := time.Now()
		f(n)
		elapsed := time.Since(start)
		if elapsed >= target || n >= 1<<22 {
			return elapsed.Seconds() / float64(n)
		}
		if elapsed < time.Millisecond {
			n *= 16
		} else {
			n *= 4
		}
	}
}

// fmtDur renders seconds with the paper's µs/ms units.
func fmtDur(s float64) string {
	switch {
	case s == 0:
		return "-"
	case s < 1e-6:
		return fmt.Sprintf("%.1f ns", s*1e9)
	case s < 1e-3:
		return fmt.Sprintf("%.2f µs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2f ms", s*1e3)
	default:
		return fmt.Sprintf("%.2f s", s)
	}
}

func fmtBytes(b float64) string {
	if b < 1024 {
		return fmt.Sprintf("%.0f B", b)
	}
	return fmt.Sprintf("%.2f KB", b/1024)
}

// sharedRSA generates the paper's 1024-bit SEAL key once.
var sharedRSA *rsax.PublicKey

func rsaKey() (*rsax.PublicKey, error) {
	if sharedRSA != nil {
		return sharedRSA, nil
	}
	k, err := rsax.GenerateKey(rsax.DefaultModulusBits, rsax.DefaultExponent)
	if err != nil {
		return nil, err
	}
	sharedRSA = k
	return k, nil
}

// --- Table II ----------------------------------------------------------------

func table2() error {
	live, err := costmodel.Calibrate()
	if err != nil {
		return err
	}
	paper := costmodel.PaperMicroCosts()
	rows := []struct {
		name        string
		live, paper float64
	}{
		{"C_sk    (sketch insertion)", live.Csk, paper.Csk},
		{"C_RSA   (1024-bit RSA enc)", live.Crsa, paper.Crsa},
		{"C_HM1   (HMAC-SHA1)", live.Chm1, paper.Chm1},
		{"C_HM256 (HMAC-SHA256)", live.Chm256, paper.Chm256},
		{"C_A20   (20-byte mod add)", live.Ca20, paper.Ca20},
		{"C_A32   (32-byte mod add)", live.Ca32, paper.Ca32},
		{"C_M32   (32-byte mod mul)", live.Cm32, paper.Cm32},
		{"C_M128  (128-byte mod mul)", live.Cm128, paper.Cm128},
		{"C_MI32  (32-byte mod inverse)", live.Cmi32, paper.Cmi32},
	}
	fmt.Printf("%-32s %14s %14s\n", "Constant", "measured", "paper")
	for _, r := range rows {
		fmt.Printf("%-32s %14s %14s\n", r.name, fmtDur(r.live), fmtDur(r.paper))
	}
	return nil
}

// --- Table III ---------------------------------------------------------------

func table3() error {
	live, err := costmodel.Calibrate()
	if err != nil {
		return err
	}
	cfg := costmodel.DefaultConfig()
	print3 := func(label string, m costmodel.MicroCosts) {
		srcB := m.SECOASourceBounds(cfg)
		aggB := m.SECOAAggregatorBounds(cfg)
		qB := m.SECOAQuerierBounds(cfg)
		fmt.Printf("\n[%s constants] N=%d F=%d J=%d D=[%d,%d]\n",
			label, cfg.N, cfg.F, cfg.J, cfg.DL, cfg.DU)
		fmt.Printf("%-24s %12s %26s %12s\n", "Cost", "CMT", "SECOAS (min/max)", "SIES")
		fmt.Printf("%-24s %12s %12s/%-12s %12s\n", "Comput. at source",
			fmtDur(m.CMTSource()), fmtDur(srcB.Min), fmtDur(srcB.Max), fmtDur(m.SIESSource()))
		fmt.Printf("%-24s %12s %12s/%-12s %12s\n", "Comput. at aggregator",
			fmtDur(m.CMTAggregator(cfg.F)), fmtDur(aggB.Min), fmtDur(aggB.Max), fmtDur(m.SIESAggregator(cfg.F)))
		fmt.Printf("%-24s %12s %12s/%-12s %12s\n", "Comput. at querier",
			fmtDur(m.CMTQuerier(cfg.N)), fmtDur(qB.Min), fmtDur(qB.Max), fmtDur(m.SIESQuerier(cfg.N)))
		commB := costmodel.SECOACommAQBounds(cfg)
		fmt.Printf("%-24s %12s %26s %12s\n", "Commun. S-A / A-A",
			"20 B", fmtBytes(float64(costmodel.SECOACommSA(cfg))), "32 B")
		fmt.Printf("%-24s %12s %12s/%-12s %12s\n", "Commun. A-Q",
			"20 B", fmtBytes(commB.Min), fmtBytes(commB.Max), "32 B")
	}
	print3("paper Table II", costmodel.PaperMicroCosts())
	print3("live calibrated", live)
	return nil
}

// --- Figure 4 ----------------------------------------------------------------

func figure4() error {
	key, err := rsaKey()
	if err != nil {
		return err
	}
	_, siesSources, err := core.Setup(1024)
	if err != nil {
		return err
	}
	ltk, err := prf.NewLongTermKey()
	if err != nil {
		return err
	}
	cmtSource := cmt.NewSource(0, ltk)

	scales := workload.PaperScales()
	if *flagQuick {
		scales = scales[:3]
	}
	live, err := costmodel.Calibrate()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %12s %12s %14s %28s\n", "Domain", "SIES", "CMT", "SECOAS", "SECOAS model (min/max)")
	for _, scale := range scales {
		lo, hi := scale.Domain()
		v := (lo + hi) / 2

		sies := measure(func(n int) {
			for i := 0; i < n; i++ {
				if _, err := siesSources[0].Encrypt(prf.Epoch(i), v); err != nil {
					panic(err)
				}
			}
		})
		cmtT := measure(func(n int) {
			for i := 0; i < n; i++ {
				cmtSource.Encrypt(prf.Epoch(i), v)
			}
		})

		params := secoa.Params{Sketch: sketch.DefaultParams(1024, hi), Key: key}
		dep, err := secoa.NewDeployment(1, params, int64(scale))
		if err != nil {
			return err
		}
		secoaT := measure(func(n int) {
			for i := 0; i < n; i++ {
				if _, err := dep.Sources[0].Produce(prf.Epoch(i), v); err != nil {
					panic(err)
				}
			}
		})

		cfg := costmodel.Config{N: 1024, J: 300, F: 4, DL: lo, DU: hi}
		b := live.SECOASourceBounds(cfg)
		fmt.Printf("%-8s %12s %12s %14s %13s/%-13s\n",
			scale, fmtDur(sies), fmtDur(cmtT), fmtDur(secoaT), fmtDur(b.Min), fmtDur(b.Max))
	}
	fmt.Println("\nShape check: SIES and CMT flat in D; SECOAS grows with D and sits ≥2 orders above SIES.")
	return nil
}

// --- Figure 5 ----------------------------------------------------------------

func figure5() error {
	key, err := rsaKey()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %12s %12s %14s\n", "Fanout", "SIES", "CMT", "SECOAS")
	for _, fanout := range []int{2, 3, 4, 5, 6} {
		q, sources, err := core.Setup(fanout)
		if err != nil {
			return err
		}
		agg := core.NewAggregator(q.Params().Field())
		psrs := make([]core.PSR, fanout)
		for i, s := range sources {
			if psrs[i], err = s.Encrypt(1, 3000); err != nil {
				return err
			}
		}
		sies := measure(func(n int) {
			for i := 0; i < n; i++ {
				agg.Merge(psrs...)
			}
		})

		cs := make([]cmt.Ciphertext, fanout)
		for i := range cs {
			ltk, err := prf.NewLongTermKey()
			if err != nil {
				return err
			}
			cs[i] = cmt.NewSource(i, ltk).Encrypt(1, 3000)
		}
		cmtT := measure(func(n int) {
			for i := 0; i < n; i++ {
				cmt.Aggregate(cs...)
			}
		})

		params := secoa.Params{Sketch: sketch.DefaultParams(1024, 5000), Key: key}
		dep, err := secoa.NewDeployment(fanout, params, int64(fanout))
		if err != nil {
			return err
		}
		sagg, err := secoa.NewAggregator(params)
		if err != nil {
			return err
		}
		msgs := make([]*secoa.Message, fanout)
		for i := 0; i < fanout; i++ {
			if msgs[i], err = dep.Sources[i].ProduceFast(1, 3000); err != nil {
				return err
			}
		}
		secoaT := measure(func(n int) {
			for i := 0; i < n; i++ {
				if _, err := sagg.Merge(msgs...); err != nil {
					panic(err)
				}
			}
		})
		fmt.Printf("F=%-6d %12s %12s %14s\n", fanout, fmtDur(sies), fmtDur(cmtT), fmtDur(secoaT))
	}
	fmt.Println("\nShape check: all linear in F; SIES ≈2 orders below SECOAS, close to CMT.")
	return nil
}

// --- Figure 6 ----------------------------------------------------------------

func querierRow(n int, domainMax uint64) (sies, cmtT, secoaT float64, err error) {
	q, sources, err := core.Setup(n)
	if err != nil {
		return 0, 0, 0, err
	}
	agg := core.NewAggregator(q.Params().Field())
	var final core.PSR
	for _, s := range sources {
		psr, err := s.Encrypt(1, 3000)
		if err != nil {
			return 0, 0, 0, err
		}
		final = agg.MergeInto(final, psr)
	}
	sies = measure(func(k int) {
		for i := 0; i < k; i++ {
			if _, err := q.Evaluate(1, final); err != nil {
				panic(err)
			}
		}
	})

	keys := make([][]byte, n)
	var cagg cmt.Ciphertext
	for i := range keys {
		if keys[i], err = prf.NewLongTermKey(); err != nil {
			return 0, 0, 0, err
		}
		cagg = cmt.Aggregate(cagg, cmt.NewSource(i, keys[i]).Encrypt(1, 3000))
	}
	cq, err := cmt.NewQuerier(keys)
	if err != nil {
		return 0, 0, 0, err
	}
	cmtT = measure(func(k int) {
		for i := 0; i < k; i++ {
			if _, err := cq.Decrypt(1, cagg, nil); err != nil {
				panic(err)
			}
		}
	})

	key, err := rsaKey()
	if err != nil {
		return 0, 0, 0, err
	}
	params := secoa.Params{Sketch: sketch.DefaultParams(n, domainMax), Key: key}
	dep, err := secoa.NewDeployment(n, params, int64(n))
	if err != nil {
		return 0, 0, 0, err
	}
	msg, err := dep.Querier.SynthesizeUniformSinkMessage(1, uint8(params.Sketch.MaxLevel-1))
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	if _, err := dep.Querier.Verify(1, msg); err != nil {
		return 0, 0, 0, err
	}
	secoaT = time.Since(start).Seconds() // one verification is plenty at scale
	return sies, cmtT, secoaT, nil
}

func figure6a() error {
	ns := []int{64, 256, 1024, 4096, 16384}
	if *flagQuick {
		ns = []int{64, 256, 1024}
	}
	fmt.Printf("%-8s %12s %12s %14s\n", "N", "SIES", "CMT", "SECOAS")
	for _, n := range ns {
		sies, cmtT, secoaT, err := querierRow(n, 5000)
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %12s %12s %14s\n", n, fmtDur(sies), fmtDur(cmtT), fmtDur(secoaT))
	}
	fmt.Println("\nShape check: all linear in N; SIES ≥1 order below SECOAS.")
	return nil
}

func figure6b() error {
	scales := workload.PaperScales()
	if *flagQuick {
		scales = scales[:3]
	}
	fmt.Printf("%-8s %12s %12s %14s\n", "Domain", "SIES", "CMT", "SECOAS")
	for _, scale := range scales {
		_, hi := scale.Domain()
		sies, cmtT, secoaT, err := querierRow(1024, hi)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %12s %12s %14s\n", scale, fmtDur(sies), fmtDur(cmtT), fmtDur(secoaT))
	}
	fmt.Println("\nShape check: SIES and CMT flat in D; SECOAS ≈flat (dominated by seed HMACs/folds).")
	return nil
}

// --- Table V -----------------------------------------------------------------

func table5() error {
	n := 1024
	if *flagQuick {
		n = 256
	}
	const fanout = 4
	rng := rand.New(rand.NewSource(1))
	vals := workload.UniformReadings(n, workload.Scale100, rng)

	type row struct {
		name       string
		sa, aa, aq float64
	}
	var rows []row
	runScheme := func(name string, proto network.Protocol) error {
		topo, err := network.CompleteTree(n, fanout)
		if err != nil {
			return err
		}
		eng, err := network.NewEngine(topo, proto)
		if err != nil {
			return err
		}
		if _, err := eng.RunEpoch(1, vals); err != nil {
			return err
		}
		st := eng.Stats()
		rows = append(rows, row{
			name: name,
			sa:   st.PerKind[network.EdgeSA].AvgBytes(),
			aa:   st.PerKind[network.EdgeAA].AvgBytes(),
			aq:   st.PerKind[network.EdgeAQ].AvgBytes(),
		})
		return nil
	}

	sp, err := network.NewSIESProtocol(n)
	if err != nil {
		return err
	}
	if err := runScheme("SIES", sp); err != nil {
		return err
	}
	cp, err := network.NewCMTProtocol(n)
	if err != nil {
		return err
	}
	if err := runScheme("CMT", cp); err != nil {
		return err
	}
	key, err := rsaKey()
	if err != nil {
		return err
	}
	params := secoa.Params{Sketch: sketch.DefaultParams(n, 5000), Key: key}
	secp, err := network.NewSECOAProtocol(n, params, 1)
	if err != nil {
		return err
	}
	if err := runScheme("SECOAS", secp); err != nil {
		return err
	}

	cfg := costmodel.DefaultConfig()
	cfg.N = n
	b := costmodel.SECOACommAQBounds(cfg)
	fmt.Printf("%-8s %12s %12s %12s\n", "Scheme", "S-A", "A-A", "A-Q")
	for _, r := range rows {
		fmt.Printf("%-8s %12s %12s %12s\n", r.name, fmtBytes(r.sa), fmtBytes(r.aa), fmtBytes(r.aq))
	}
	fmt.Printf("\nPaper (N=1024): SIES 32 B everywhere; CMT 20 B; SECOAS 37.8 KB (S-A, A-A), 832 B actual A-Q.\n")
	fmt.Printf("SECOAS A-Q model bounds: %s / %s.\n", fmtBytes(b.Min), fmtBytes(b.Max))
	return nil
}
