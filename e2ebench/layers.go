package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/sies/sies/internal/obs"
	"github.com/sies/sies/internal/transport"
)

// watchCommits polls the querier's epoch tracer often enough that its ring
// never laps, keeping each epoch's verify→commit offset in out. The returned
// stop function returns once the poller has exited.
func watchCommits(qn *transport.QuerierNode, rate float64, out []int64) (stop func()) {
	tr := qn.Tracer()
	poll := func() {
		for _, s := range tr.Recent(0) {
			if s.Epoch < uint64(len(out)) && out[s.Epoch] < 0 {
				out[s.Epoch] = verifyToCommit(s)
			}
		}
	}
	every := min(time.Second, time.Duration(float64(obs.DefaultTraceCapacity/4)/rate*float64(time.Second)))
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				poll()
				return
			case <-tick.C:
				poll()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// verifyToCommit is a finished span's verify→commit offset in µs, or -1.
func verifyToCommit(s obs.Span) int64 {
	verify, commit := int64(-1), int64(-1)
	for _, m := range s.Stages {
		switch m.Stage {
		case obs.StageVerify:
			verify = m.OffsetUS
		case obs.StageCommit:
			commit = m.OffsetUS
		}
	}
	if !s.Done || verify < 0 || commit < verify {
		return -1
	}
	return commit - verify
}

// path holds one epoch's critical-path segments in µs. They sum exactly to
// the epoch's answer latency except for the hop from the last send to the
// aggregator's read, which is left to the gap.
type path struct {
	late, send, agg, querier []float64
}

func (p *pass) criticalPath() path {
	var cp path
	for e := p.first; e <= p.last; e++ {
		st, at := p.ledger.outcome(e)
		lr, uw := p.probe.lastRead[e].Load(), p.probe.upWrite[e].Load()
		if st != full || lr == 0 || uw == 0 {
			continue
		}
		cp.late = append(cp.late, float64(p.sendAt[e]-p.due[e])/1e3)
		cp.send = append(cp.send, float64(p.sentAt[e]-p.sendAt[e])/1e3)
		cp.agg = append(cp.agg, float64(uw-lr)/1e3)
		cp.querier = append(cp.querier, float64(at-uw)/1e3)
	}
	return cp
}

// perLayer derives the per-layer metrics of a traced pass; plain is the
// untraced pass run just before it, the baseline of the tracing overhead.
func perLayer(tr, plain *pass) map[string]metric {
	b, a := tr.before, tr.after
	epochs := float64(tr.attempted())
	answered := float64(tr.attempted() - tr.failedOps())
	cp := tr.criticalPath()
	answerMs := tr.latencyQuantile(0.5)
	gap := answerMs*1e3 - (median(cp.late) + median(cp.send) + median(cp.agg) + median(cp.querier))

	var lateAll, commits []float64
	for e := tr.first; e <= tr.last; e++ {
		lateAll = append(lateAll, float64(tr.sendAt[e]-tr.due[e])/1e6)
		if tr.commitUs[e] >= 0 {
			commits = append(commits, float64(tr.commitUs[e]))
		}
	}
	delta := func(m func(snapshot) map[string]float64, keys ...string) float64 {
		var s float64
		for _, k := range keys {
			s += m(a)[k] - m(b)[k]
		}
		return s
	}
	aggM := func(s snapshot) map[string]float64 { return s.agg }
	qM := func(s snapshot) map[string]float64 { return s.qm }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	out := map[string]metric{}
	put := func(name, unit string, v float64) {
		out[name] = metric{Value: v, Unit: unit, dist: dist{Median: v, Q1: v, Q3: v, N: 1}}
	}
	putDist := func(name, unit string, v float64, xs []float64) {
		out[name] = metric{Value: v, Unit: unit, dist: distOf(xs)}
	}
	p99 := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return quantile(s, 0.99)
	}

	put("transport.source.report_us", "us", ratio(float64(a.sendNs-b.sendNs)/1e3, float64(a.sends-b.sends)))
	put("transport.source.write_us", "us", ratio(float64(a.writeNs-b.writeNs)/1e3, float64(a.writes-b.writes)))
	put("transport.source.writes_per_epoch", "count", float64(a.writes-b.writes)/epochs)
	putDist("transport.source.epoch_span_p50_us", "us", median(cp.send), cp.send)

	put("core.encrypt_us", "us", tr.replay.encryptUs)
	put("core.merge_us", "us", tr.replay.mergeUs)
	put("core.derive_ms", "ms", tr.replay.deriveMs)
	put("core.verify_us", "us", tr.replay.verifyUs)

	putDist("transport.agg.residence_p50_us", "us", median(cp.agg), cp.agg)
	putDist("transport.agg.residence_p99_us", "us", p99(cp.agg), cp.agg)
	put("transport.agg.shard_contention_per_epoch", "count", delta(aggM, "sies_agg_shard_contention_total")/epochs)
	put("transport.agg.ingest_retries_per_epoch", "count", delta(aggM, "sies_agg_ingest_retries_total")/epochs)
	put("transport.agg.drops_per_epoch", "count",
		delta(aggM, "sies_agg_late_drops_total", "sies_agg_fence_drops_total", "sies_agg_stale_drops_total")/epochs)

	putDist("transport.querier.residence_p50_us", "us", median(cp.querier), cp.querier)
	putDist("transport.querier.residence_p99_us", "us", p99(cp.querier), cp.querier)
	put("transport.querier.eval_us", "us",
		1e6*ratio(delta(qM, "sies_epoch_eval_seconds_sum"), delta(qM, "sies_epoch_eval_seconds_count")))
	put("core.schedule.prefetch_win_ratio", "ratio",
		ratio(float64(a.sched.PrefetchWins-b.sched.PrefetchWins), float64(a.sched.Evaluations-b.sched.Evaluations)))
	put("core.schedule.derivations_per_epoch", "count", float64(a.sched.Derivations-b.sched.Derivations)/epochs)

	put("transport.wire.bytes_per_epoch", "B", float64(a.bytes-b.bytes)/epochs)
	put("transport.wire.frames_per_epoch", "count", float64(a.frames-b.frames)/epochs)

	put("durable.commit_fsync_us", "us", tr.replay.fsyncUs)
	put("durable.checkpoint_ms", "ms", tr.replay.checkpointMs)
	put("durable.fsyncs_per_epoch", "count", tr.replay.fsyncs)
	put("durable.checkpoints_per_1k_epochs", "count", tr.replay.checkpoints)
	putDist("transport.querier.commit_p99_us", "us", p99(commits), commits)

	put("runtime.allocs_per_epoch", "count", float64(a.mem.Mallocs-b.mem.Mallocs)/epochs)
	put("runtime.alloc_bytes_per_epoch", "B", float64(a.mem.TotalAlloc-b.mem.TotalAlloc)/epochs)
	put("runtime.gc_cycles_per_1k_epochs", "count", 1e3*float64(a.mem.NumGC-b.mem.NumGC)/epochs)
	put("runtime.gc_pause_us_per_epoch", "us", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e3/epochs)

	put("proc.user_cpu_us_per_epoch", "us", float64(a.ru.Utime.Nano()-b.ru.Utime.Nano())/1e3/answered)
	put("proc.sys_cpu_us_per_epoch", "us", float64(a.ru.Stime.Nano()-b.ru.Stime.Nano())/1e3/answered)
	put("proc.ctx_switches_per_epoch", "count",
		float64(a.ru.Nvcsw+a.ru.Nivcsw-b.ru.Nvcsw-b.ru.Nivcsw)/epochs)

	putDist("gen.late_p50_us", "us", median(cp.late), cp.late)
	putDist("gen.late_p99_ms", "ms", p99(lateAll), lateAll)
	put("trace.gap_p50_us", "us", gap)
	put("trace.answer_p50_ms", "ms", answerMs)
	put("trace.overhead_pct", "%", 100*(answerMs-plain.latencyQuantile(0.5))/plain.latencyQuantile(0.5))
	// The untraced pass's tail: too unsteady here for an end-to-end bound.
	putDist("e2e.answer_p95_ms", "ms", plain.latencyQuantile(0.95), plain.latencies())
	putDist("e2e.answer_p99_ms", "ms", plain.latencyQuantile(0.99), plain.latencies())
	return out
}

// writeLayerTable writes the traced pass's breakdown, naming the layer that
// dominates the epoch's latency and the one that dominates its CPU.
func writeLayerTable(opt options, prov map[string]any, tr *pass, m map[string]metric) error {
	v := func(name string) float64 { return m[name].Value }
	answerUs := v("trace.answer_p50_ms") * 1e3
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s: traced layer breakdown\n\n", opt.w.name)
	fmt.Fprintf(&sb, "%d sources, %g epochs/s open-loop, %d s window (%d epochs, %d failed), seed %d.\n",
		opt.w.sources, opt.w.rate, opt.seconds, tr.attempted(), tr.failedOps(), opt.seed)
	fmt.Fprintf(&sb, "Host: %v, %v CPUs, GOMAXPROCS %v, kernel %v, %v; state on %v; source %v.\n\n",
		prov["cpu_model"], prov["nproc"], prov["gomaxprocs"], prov["kernel"], prov["go_version"],
		prov["state_fs"], prov["source_sha256"])
	if tr.selfCheck != "" {
		fmt.Fprintf(&sb, "Self-check: %s.\n\n", tr.selfCheck)
	}

	type row struct {
		segment, layer string
		us             float64
	}
	sends := "source Reports (encrypt + frame write)"
	if opt.w.wide {
		sends = "subtree frame writes"
	}
	rows := []row{
		{"generator lateness", "gen", v("gen.late_p50_us")},
		{sends, "transport.source", v("transport.source.epoch_span_p50_us")},
		{"last child frame read → upstream frame written", "transport.agg", v("transport.agg.residence_p50_us")},
		{"upstream frame written → verified result received", "transport.querier", v("transport.querier.residence_p50_us")},
		{"gap: last send → last child frame read (reader wake-ups, ingest queueing, loopback)", "proc + transport.wire", v("trace.gap_p50_us")},
	}
	sb.WriteString("## Latency: the median epoch's critical path\n\n")
	sb.WriteString("| segment | layer | p50 µs | share |\n|---|---|---:|---:|\n")
	top := rows[0]
	for _, r := range rows {
		fmt.Fprintf(&sb, "| %s | %s | %.1f | %.0f%% |\n", r.segment, r.layer, r.us, 100*r.us/answerUs)
		if r.us > top.us {
			top = r
		}
	}
	fmt.Fprintf(&sb, "| **traced answer_p50** | | **%.1f** | 100%% |\n\n", answerUs)
	fmt.Fprintf(&sb, "Dominant on the latency path: **%s** (%s).\n\n", top.layer, top.segment)

	user, sys := v("proc.user_cpu_us_per_epoch"), v("proc.sys_cpu_us_per_epoch")
	encrypt := 0.0
	if !opt.w.wide {
		encrypt = v("core.encrypt_us") * float64(opt.w.sources)
	}
	derive := v("core.schedule.derivations_per_epoch") * v("core.derive_ms") * 1e3 / float64(opt.w.sources)
	mergeVerify := v("core.merge_us") + v("core.verify_us")
	cpu := []row{
		{"source encryption", "core", encrypt},
		{"querier key derivation", "core", derive},
		{"merge + verify", "core", mergeVerify},
		{"the rest", "transport + runtime + proc", user + sys - encrypt - derive - mergeVerify},
	}
	sb.WriteString("## CPU per epoch\n\n")
	sb.WriteString("Replayed core costs times their per-epoch counts; the rest is transport, runtime and kernel.\n\n")
	sb.WriteString("| part | layer | µs | share |\n|---|---|---:|---:|\n")
	top = cpu[0]
	for _, r := range cpu {
		fmt.Fprintf(&sb, "| %s | %s | %.1f | %.0f%% |\n", r.segment, r.layer, r.us, 100*r.us/(user+sys))
		if r.us > top.us {
			top = r
		}
	}
	fmt.Fprintf(&sb, "| **user + system** | | **%.1f** | 100%% |\n\n", user+sys)
	fmt.Fprintf(&sb, "Dominant by CPU: **%s** (%s).\n\n", top.layer, top.segment)
	// The kernel samples the user/system split at its scheduler tick, which
	// a precisely paced epoch clock can alias with; only the sum is exact.
	fmt.Fprintf(&sb, "getrusage puts %.1f µs in user space and %.1f µs in the kernel; the split is tick-sampled, only the sum is exact.\n\n", user, sys)

	sb.WriteString("## Every per-layer metric\n\n| metric | value | unit | samples |\n|---|---:|---|---:|\n")
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "| %s | %.4g | %s | %d |\n", name, m[name].Value, m[name].Unit, m[name].dist.N)
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(resultsDir, "layers-"+opt.w.name+".md"), []byte(sb.String()), 0o644)
}
