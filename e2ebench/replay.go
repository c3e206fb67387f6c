package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/transport"
)

// replays are component costs measured outside the timed window by calling
// each module's public functions on the workload's own keys and inputs.
type replays struct {
	encryptUs    float64 // one Source.Encrypt
	mergeUs      float64 // one aggregator flush: NewMerge, Add per child, Final
	deriveMs     float64 // Schedule.EpochState for a fresh epoch over all N, one worker
	verifyUs     float64 // EpochState.Evaluate
	fsyncUs      float64 // a journaling querier's verify→commit: append + fsync
	checkpointMs float64 // the extra verify→commit time of an epoch that checkpoints
	fsyncs       float64 // journal fsyncs per epoch on the journaling querier
	checkpoints  float64 // checkpoints per 1k epochs on the journaling querier
}

// replayEpoch is far beyond any epoch a run sends, so every replayed epoch
// is fresh for the sources and the schedule. The derivation replay starts at
// deriveEpoch and the durable replay at durableEpoch, clear of the others.
const (
	replayEpoch  = 1 << 40
	deriveEpoch  = replayEpoch + 1<<20
	durableEpoch = replayEpoch + 1<<21
)

// durableCadences is how many checkpoint cadences the durable replay runs.
const durableCadences = 4

func replay(opt options, t *tree) (replays, error) {
	var r replays
	if err := r.core(opt, t); err != nil {
		return r, err
	}
	dir := filepath.Join(opt.stateRoot, fmt.Sprintf("replay-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	return r, r.durable(opt, t, dir)
}

func (r *replays) core(opt options, t *tree) error {
	n := len(t.sources)
	epochs := max(1, 8192/n)
	psrs := make([]core.PSR, n)
	for i, s := range t.sources { // untimed: builds each source's key schedule
		if _, err := s.Encrypt(prf.Epoch(replayEpoch-1), reading(opt.seed, replayEpoch-1, i)); err != nil {
			return err
		}
	}
	var want uint64
	start := time.Now()
	for k := 0; k < epochs; k++ {
		e := replayEpoch + k
		want = 0
		for i, s := range t.sources {
			v := reading(opt.seed, e, i)
			psr, err := s.Encrypt(prf.Epoch(e), v)
			if err != nil {
				return err
			}
			psrs[i] = psr
			want += v
		}
	}
	r.encryptUs = micros(time.Since(start)) / float64(epochs*n)
	last := prf.Epoch(replayEpoch + epochs - 1)

	// The aggregator's fan-in: every source, or the two subtree reports.
	agg := core.NewAggregator(t.q.Params().Field())
	kids := psrs
	if opt.w.wide {
		kids = nil
		per := n / subtrees
		for c := 0; c < subtrees; c++ {
			kids = append(kids, agg.Merge(psrs[c*per:(c+1)*per]...))
		}
	}
	const mergeReps = 2000
	var final core.PSR
	start = time.Now()
	for k := 0; k < mergeReps; k++ {
		m := agg.NewMerge()
		for _, c := range kids {
			m.Add(c)
		}
		final = m.Final()
	}
	r.mergeUs = micros(time.Since(start)) / mergeReps

	// One worker and no prefetch: each call derives a fresh epoch inline, so
	// its time is the derivation's CPU cost whatever the other cores do.
	sched := core.NewSchedule(t.q, core.ScheduleConfig{Workers: 1})
	derive := make([]float64, min(200, max(10, 81920/n)))
	for k := range derive {
		t0 := time.Now()
		if _, err := sched.EpochState(prf.Epoch(deriveEpoch+k), nil); err != nil {
			return err
		}
		derive[k] = micros(time.Since(t0)) / 1e3
	}
	r.deriveMs = median(derive)

	es, err := sched.EpochState(last, nil)
	if err != nil {
		return err
	}
	const verifyReps = 2000
	start = time.Now()
	for k := 0; k < verifyReps; k++ {
		res, err := es.Evaluate(final)
		if err != nil {
			return fmt.Errorf("replayed epoch %d: %w", last, err)
		}
		if res.Sum != want {
			return fmt.Errorf("replayed epoch %d: SUM %d, want %d", last, res.Sum, want)
		}
	}
	r.verifyUs = micros(time.Since(start)) / verifyReps
	return nil
}

// durable drives a querier that journals to dir, configured as cmd/siesnode
// configures one with a state directory, through a raw root link: closed
// loop, the workload's own sources and keys, for a few checkpoint cadences.
// Each epoch's verify→commit offset from the querier's tracer is its journal
// append and fsync; on an epoch whose commit also checkpointed, it includes
// the Store.Checkpoint. Both run at the querier's own record and snapshot
// sizes, on the state directory's filesystem.
func (r *replays) durable(opt options, t *tree, dir string) error {
	cfg := transport.QuerierConfig{ListenAddr: "127.0.0.1:0", StateDir: dir, Schedule: core.ScheduleConfig{Prefetch: true}}
	qn, err := transport.NewQuerierNodeConfig(cfg, t.q)
	if err != nil {
		return err
	}
	ran := make(chan error, 1)
	go func() { ran <- qn.Run() }()
	err = r.journal(opt, t, qn)
	qn.Close()
	for range qn.Results {
	}
	return errors.Join(err, <-ran)
}

func (r *replays) journal(opt options, t *tree, qn *transport.QuerierNode) error {
	conn, err := net.Dial("tcp", qn.Addr())
	if err != nil {
		return err
	}
	drained := make(chan struct{})
	defer func() {
		conn.Close()
		<-drained
	}()
	ids := make([]int, len(t.sources))
	for i := range ids {
		ids[i] = i
	}
	err = transport.WriteFrame(conn, transport.Frame{Type: transport.TypeHello, Payload: core.EncodeContributors(ids)})
	if err == nil {
		_, err = transport.ReadFrame(conn)
	}
	go func() {
		defer close(drained)
		_, _ = io.Copy(io.Discard, conn) // the querier's per-epoch acks, until the link closes
	}()
	if err != nil {
		return fmt.Errorf("durable replay hello: %w", err)
	}

	agg := core.NewAggregator(t.q.Params().Field())
	tr := qn.Tracer()
	var commits, ckpts []float64
	syncs0 := qn.Metrics().Snapshot()["sies_wal_syncs_total"]
	epochs := durableCadences * transport.DefaultCheckpointEvery
	for e := durableEpoch; e < durableEpoch+epochs; e++ {
		m := agg.NewMerge()
		var want uint64
		for i, s := range t.sources {
			v := reading(opt.seed, e, i)
			psr, err := s.Encrypt(prf.Epoch(e), v)
			if err != nil {
				return err
			}
			m.Add(psr)
			want += v
		}
		before := qn.DurabilityStats().Checkpoints
		if err := transport.WriteFrame(conn, reportFrame(e, m.Final())); err != nil {
			return err
		}
		res, ok := <-qn.Results
		switch {
		case !ok:
			return errors.New("durable replay: the querier stopped")
		case res.Err != nil || res.Sum != want:
			return fmt.Errorf("durable replay epoch %d: SUM %d (%v), want %d", res.Epoch, res.Sum, res.Err, want)
		}
		us := int64(-1)
		for _, s := range tr.Recent(4) {
			if s.Epoch == uint64(res.Epoch) {
				us = verifyToCommit(s)
			}
		}
		if us < 0 {
			return fmt.Errorf("durable replay epoch %d: no verify→commit span", res.Epoch)
		}
		if qn.DurabilityStats().Checkpoints > before {
			ckpts = append(ckpts, float64(us))
		} else {
			commits = append(commits, float64(us))
		}
	}
	r.fsyncUs = median(commits)
	r.checkpointMs = (median(ckpts) - r.fsyncUs) / 1e3
	r.fsyncs = (qn.Metrics().Snapshot()["sies_wal_syncs_total"] - syncs0) / float64(epochs)
	r.checkpoints = 1e3 * float64(len(ckpts)) / float64(epochs)
	return nil
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }
