package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/transport"
)

var (
	flagCluster  = flag.Bool("cluster", false, "run the live-cluster throughput sweep (epochs/sec over loopback TCP)")
	flagBaseline = flag.String("baseline", "", "BENCH_transport.json to gate against; fail on >20% epochs/sec regression")
)

// transportRows accumulates the transport-suite benchmark rows across the
// -cluster and -aggmerge sweeps so one BENCH_transport.json holds both; main
// writes and gates it after every selected suite has run.
var transportRows []benchRow

// flushTransportRows writes the accumulated transport rows (with -json) and
// applies the baseline regression gate (with -baseline).
func flushTransportRows() error {
	if len(transportRows) == 0 {
		return nil
	}
	if *flagJSON {
		if err := writeBenchJSON("transport", transportRows); err != nil {
			return err
		}
	}
	if *flagBaseline != "" {
		if err := gateTransport(transportRows, *flagBaseline); err != nil {
			return err
		}
		fmt.Printf("(no regression beyond tolerance vs %s)\n", *flagBaseline)
	}
	return nil
}

// memMark measures the heap allocations of a timed loop across the whole
// process: take markMem before the loop and call perOp after it.
type memMark struct{ allocs, bytes uint64 }

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.Mallocs, ms.TotalAlloc}
}

// perOp returns the allocations and bytes allocated per op since m.
func (m memMark) perOp(ops int) (allocs, bytes int64) {
	now := markMem()
	return int64((now.allocs - m.allocs) / uint64(ops)), int64((now.bytes - m.bytes) / uint64(ops))
}

// transportBench measures end-to-end epochs/sec of a live cluster — N source
// nodes streaming into one aggregator into the querier, all over loopback TCP
// — as siesnode deploys it, with the cluster's allocations per epoch.
func transportBench() error {
	type sweep struct{ n, epochs int }
	sweeps := []sweep{{64, 800}, {256, 400}, {1024, 150}}
	if *flagQuick {
		sweeps = []sweep{{64, 400}, {256, 200}}
	}

	fmt.Printf("%-8s %8s %12s %14s %14s\n", "N", "epochs", "epochs/sec", "allocs/epoch", "bytes/epoch")
	for _, s := range sweeps {
		row, err := runTransportEpochs(s.n, s.epochs)
		if err != nil {
			return fmt.Errorf("N=%d: %w", s.n, err)
		}
		transportRows = append(transportRows, row)
		fmt.Printf("%-8d %8d %12.0f %14d %14d\n", s.n, s.epochs, row.EpochsPerSec, row.AllocsPerOp, row.BytesPerOp)
	}
	return nil
}

// runTransportEpochs drives the cluster for the given number of epochs and
// returns its row: end-to-end epochs/sec, timed from the first report to the
// last verified result, and the process's allocations per epoch over the
// same window.
func runTransportEpochs(n, epochs int) (benchRow, error) {
	q, sources, err := core.Setup(n)
	if err != nil {
		return benchRow{}, err
	}
	qn, err := transport.NewQuerierNodeConfig(transport.QuerierConfig{ListenAddr: "127.0.0.1:0"}, q)
	if err != nil {
		return benchRow{}, err
	}
	go qn.Run()

	aggAddr, err := loopbackAddr()
	if err != nil {
		return benchRow{}, err
	}
	// The aggregator constructor blocks until all n children have completed
	// their hello handshake, so it must run concurrently with the dials below.
	acfg := transport.AggregatorConfig{
		ListenAddr: aggAddr, ParentAddr: qn.Addr(),
		NumChildren: n, Timeout: 10 * time.Second,
	}
	aggReady := make(chan *transport.AggregatorNode, 1)
	aggDone := make(chan error, 1)
	go func() {
		agg, err := transport.NewAggregatorNode(acfg, q.Params().Field())
		aggReady <- agg
		if err != nil {
			aggDone <- err
			return
		}
		aggDone <- agg.Run()
	}()

	srcs := make([]*transport.SourceNode, n)
	for i, s := range sources {
		if srcs[i], err = dialSourceRetry(transport.SourceConfig{ParentAddr: aggAddr}, s); err != nil {
			return benchRow{}, err
		}
	}
	agg := <-aggReady
	if agg == nil {
		return benchRow{}, <-aggDone
	}

	done := make(chan error, 1)
	go func() {
		got := 0
		for res := range qn.Results {
			if res.Err != nil {
				done <- fmt.Errorf("epoch %d rejected: %w", res.Epoch, res.Err)
				return
			}
			if got++; got == epochs {
				done <- nil
				return
			}
		}
		done <- fmt.Errorf("results closed after %d/%d epochs", got, epochs)
	}()

	mem := markMem()
	start := time.Now()
	for e := 1; e <= epochs; e++ {
		for i := range srcs {
			if err := srcs[i].Report(prf.Epoch(e), uint64(1000+i)); err != nil {
				return benchRow{}, err
			}
		}
	}
	if err := <-done; err != nil {
		return benchRow{}, err
	}
	elapsed := time.Since(start)
	allocs, bytes := mem.perOp(epochs)

	for _, s := range srcs {
		s.Close()
	}
	agg.Close()
	<-aggDone
	qn.Close()
	eps := float64(epochs) / elapsed.Seconds()
	return benchRow{Op: "cluster", N: n, NsPerOp: 1e9 / eps, EpochsPerSec: eps, AllocsPerOp: allocs, BytesPerOp: bytes}, nil
}

// dialSourceRetry retries a source dial briefly: the first dial races the
// aggregator goroutine's listen call on the pre-reserved port.
func dialSourceRetry(cfg transport.SourceConfig, s *core.Source) (*transport.SourceNode, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		src, err := transport.DialSourceWith(cfg, s)
		if err == nil || time.Now().After(deadline) {
			return src, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// loopbackAddr reserves a loopback port for a listener started right after.
func loopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// gateTransport fails when any row present in both runs regressed in
// epochs/sec against the committed baseline file: more than 20% for the
// cluster rows, more than 40% for the aggmerge microbenchmark rows, whose
// tens-of-milliseconds runs carry proportionally more scheduler noise on
// shared CI hosts.
func gateTransport(rows []benchRow, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	old := map[string]float64{}
	for _, r := range base.Rows {
		old[fmt.Sprintf("%s/N=%d", r.Op, r.N)] = r.EpochsPerSec
	}
	var failed bool
	for _, r := range rows {
		key := fmt.Sprintf("%s/N=%d", r.Op, r.N)
		was, ok := old[key]
		if !ok || was <= 0 {
			continue // new sweep point; nothing to gate against
		}
		floor := 0.8
		if strings.HasPrefix(r.Op, "aggmerge/") {
			floor = 0.6
		}
		if r.EpochsPerSec < floor*was {
			failed = true
			fmt.Fprintf(os.Stderr, "REGRESSION %s: %.0f epochs/sec, baseline %.0f (-%.0f%%)\n",
				key, r.EpochsPerSec, was, 100*(1-r.EpochsPerSec/was))
		}
	}
	if failed {
		return fmt.Errorf("throughput regressed beyond tolerance vs %s (gitrev %s)", path, base.GitRev)
	}
	return nil
}
