package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/transport"
)

// pass is one formed tree driven through a warm-up and a measured window.
// Epochs 1..warm are the warm-up, first..last the window; one spare epoch
// after the window carries the wide workload's tampered-frame self-check.
type pass struct {
	opt    options
	base   time.Time
	period time.Duration
	warm   int
	first  int
	last   int
	setup  []float64 // seconds, one per timed formation
	tab    *table    // backs every per-epoch table below
	tree   *tree     // the driven tree (closed once the pass ends)
	in     *inputs

	ledger    *ledger
	collected chan struct{} // closed when the collector has drained Results
	due       []int64       // ns since base
	sendAt    []int64       // generator: first send of the epoch begins
	sentAt    []int64       // generator: last send of the epoch returns

	cpuSlices []float64 // CPU ms per epoch over each second of the window
	before    snapshot  // at the window's edges
	after     snapshot
	peakRSS   float64 // MiB, over the window

	// Traced pass only.
	probe     *probe
	sendNs    int64   // time inside Report (or a subtree link write)
	sends     int64   // Report calls (or subtree link writes) in the window
	commitUs  []int64 // querier verify→commit offset per epoch, -1 unknown
	replay    replays
	selfCheck string
}

// measure forms the tree and drives it: a warm-up, then the paced window of
// opt.seconds. It then times `timed` further formations of the tree, after
// the window, so none of their memory is resident in it. A non-nil reuse
// lends its keys and prepared inputs, so a second pass skips the
// preparation.
func measure(opt options, timed int, traced bool, reuse *pass) (*pass, error) {
	w := opt.w
	p := &pass{opt: opt, base: time.Now(), period: time.Duration(float64(time.Second) / w.rate)}
	p.warm = max(int(w.rate*warmup.Seconds()), 1)
	p.first = p.warm + 1
	p.last = p.warm + int(w.rate*float64(opt.seconds))
	spare := p.last + 1
	frameLen := 0
	if w.wide {
		frameLen = reportFrameLen()
	}
	var err error
	if p.tab, err = newTable((spare + 1) * (tableBytesPerEpoch + subtrees*frameLen)); err != nil {
		return nil, err
	}
	p.due = alloc[int64](p.tab, spare+1)
	p.sendAt = alloc[int64](p.tab, spare+1)
	p.sentAt = alloc[int64](p.tab, spare+1)
	p.cpuSlices = make([]float64, 0, opt.seconds)
	if traced {
		p.probe = newProbe(p.base, alloc[atomic.Int64](p.tab, spare+1), alloc[atomic.Int64](p.tab, spare+1))
		p.commitUs = alloc[int64](p.tab, spare+1)
		for i := range p.commitUs {
			p.commitUs[i] = -1
		}
	}

	var keys *tree
	if reuse != nil {
		keys = reuse.tree
		p.in = reuse.in
	}
	t, _, err := formTree(w, p.probe, keys)
	if err != nil {
		return nil, fmt.Errorf("forming the tree: %w", err)
	}
	p.tree = t
	err = p.drive(t, spare)
	if cerr := t.close(); err == nil {
		err = cerr
	}
	if p.collected != nil {
		<-p.collected
	}
	if err == nil {
		err = p.ledger.err()
	}
	if err == nil {
		err = p.timeFormations(timed)
	}
	return p, err
}

// timeFormations forms the tree n times with fresh keys, each after
// formationIdle, recording each set-up time. The formations all stay up
// until the last of them is formed, so no teardown runs beside a timed
// formation. They are then torn down together: an aggregator's Run returns
// only at its next exit tick, a quarter of its 2 s timeout after Close, and
// waiting for each in turn would idle the run for half a second per
// formation.
func (p *pass) timeFormations(n int) error {
	var (
		trees []*tree
		errs  []error
	)
	for i := 0; i < n; i++ {
		runtime.GC()
		time.Sleep(formationIdle)
		t, d, err := formTree(p.opt.w, nil, nil)
		if err != nil {
			errs = append(errs, fmt.Errorf("forming the tree: %w", err))
			break
		}
		trees = append(trees, t)
		p.setup = append(p.setup, d.Seconds())
	}
	for _, t := range trees {
		t.closeChildren()
	}
	waits := make([]error, len(trees))
	var wg sync.WaitGroup
	for i, t := range trees {
		wg.Add(1)
		go func() {
			defer wg.Done()
			waits[i] = t.wait()
		}()
	}
	wg.Wait()
	return errors.Join(append(errs, waits...)...)
}

// drive prepares the inputs, runs the warm-up and the window and, on a
// traced pass, the component replays.
func (p *pass) drive(t *tree, spare int) error {
	var err error
	if p.in == nil {
		if p.in, err = prepare(p.opt, t, p.tab, spare); err != nil {
			return err
		}
	}
	in := p.in
	p.ledger = newLedger(p.opt.seed, p.opt.w.sources, in.expected, p.base, p.tab)
	p.collected = make(chan struct{})
	go func() {
		defer close(p.collected)
		p.ledger.collect(t.qn.Results)
	}()

	// The preparation's garbage goes back to the OS before the warm-up
	// touches the heap again.
	debug.FreeOSMemory()
	if err := p.pace(t, in, 1, p.warm, false); err != nil {
		return err
	}
	if err := p.ledger.wait(p.warm, time.Now().Add(answerGrace)); err != nil {
		return err
	}

	if p.probe != nil {
		defer watchCommits(t.qn, p.opt.w.rate, p.commitUs)()
	}
	// The peak read after the window then covers the window alone: what the
	// tree holds while it serves, plus the harness's per-epoch tables.
	if err := resetPeakRSS(); err != nil {
		return err
	}
	p.before = p.snap(t)
	if err := p.pace(t, in, p.first, p.last, true); err != nil {
		return err
	}
	deadline := p.base.Add(time.Duration(p.due[p.last]) + answerGrace)
	if err := p.ledger.wait(p.last, deadline); err != nil {
		return err
	}
	p.after = p.snap(t)
	p.peakRSS = peakRSSMiB()

	if p.opt.w.wide {
		if err := p.tamperCheck(t, in, spare); err != nil {
			return err
		}
	}
	if p.probe != nil {
		if p.replay, err = replay(p.opt, t); err != nil {
			return err
		}
	}
	return nil
}

// inputs are the generator's prepared inputs.
type inputs struct {
	expected []uint64           // exact SUM per epoch
	frames   []byte             // wide: one encoded report frame per epoch and subtree
	frameLen int                // wide: the size of one encoded report frame
	spare    [subtrees]core.PSR // wide: the spare epoch's subtree PSRs
}

// tableBytesPerEpoch bounds the per-epoch tables of one pass, the wide
// workload's frames aside: the generator's three timestamps, the ledger's
// status, answer time and expected SUM, the traced pass's three stamps and
// room for alignment.
const tableBytesPerEpoch = 3*8 + 1 + 8 + 8 + 3*8 + 8*8

// reportFrame is the frame a subtree aggregator sends upstream for epoch e:
// its merged PSR with an empty failed-id list.
func reportFrame(e int, psr core.PSR) transport.Frame {
	return transport.Frame{Type: transport.TypePSR, Epoch: uint64(e), Payload: transport.EncodeReport(psr, nil)}
}

// reportFrameLen is the encoded size of a report frame, from the transport's
// own encoder.
func reportFrameLen() int { return len(transport.AppendFrame(nil, reportFrame(0, core.PSR{}))) }

func (in *inputs) frame(e, c int) []byte {
	off := (e*subtrees + c) * in.frameLen
	return in.frames[off : off+in.frameLen : off+in.frameLen]
}

// prepare computes each epoch's exact SUM and, for the wide workload,
// encrypts every source's reading with core.Source.Encrypt and merges each
// subtree's reports into the one frame its aggregator would send. The wide
// workload's sources are throwaway stand-ins built from the key ring and
// dropped once their reports are merged, so the tree's resident set holds
// none of the generator's keys. It runs before any epoch is sent, outside
// the set-up time.
func prepare(opt options, t *tree, tab *table, epochs int) (*inputs, error) {
	in := &inputs{expected: alloc[uint64](tab, epochs+1)}
	n := opt.w.sources
	if !opt.w.wide {
		for e := 1; e <= epochs; e++ {
			for i := 0; i < n; i++ {
				in.expected[e] += reading(opt.seed, e, i)
			}
		}
		return in, nil
	}

	// Sources cache their epoch keys, so a source belongs to one worker;
	// each worker folds a contiguous id range of one subtree.
	type part struct {
		subtree, lo, hi int
		psr             []core.PSR
		sum             []uint64
		err             error
	}
	per := n / subtrees
	chunks := max(1, (runtime.GOMAXPROCS(0)+subtrees-1)/subtrees)
	parts := make([]part, 0, subtrees*chunks)
	for c := 0; c < subtrees; c++ {
		for k := 0; k < chunks; k++ {
			parts = append(parts, part{subtree: c, lo: c*per + k*per/chunks, hi: c*per + (k+1)*per/chunks})
		}
	}
	ring, params := t.q.KeyRing(), t.q.Params()
	var wg sync.WaitGroup
	for i := range parts {
		pt := &parts[i]
		pt.psr = make([]core.PSR, epochs+1)
		pt.sum = make([]uint64, epochs+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			srcs, err := throwawaySources(ring, params, pt.lo, pt.hi)
			if err != nil {
				pt.err = err
				return
			}
			agg := core.NewAggregator(params.Field())
			for e := 1; e <= epochs; e++ {
				m := agg.NewMerge()
				for k, s := range srcs {
					v := reading(opt.seed, e, pt.lo+k)
					psr, err := s.Encrypt(prf.Epoch(e), v)
					if err != nil {
						pt.err = err
						return
					}
					m.Add(psr)
					pt.sum[e] += v
				}
				pt.psr[e] = m.Final()
			}
		}()
	}
	wg.Wait()

	agg := core.NewAggregator(params.Field())
	in.frameLen = reportFrameLen()
	in.frames = alloc[byte](tab, (epochs+1)*subtrees*in.frameLen)
	for e := 1; e <= epochs; e++ {
		for c := 0; c < subtrees; c++ {
			m := agg.NewMerge()
			for i := range parts {
				if parts[i].err != nil {
					return nil, parts[i].err
				}
				if parts[i].subtree == c {
					m.Add(parts[i].psr[e])
					in.expected[e] += parts[i].sum[e]
				}
			}
			psr := m.Final()
			in.spare[c] = psr // the spare epoch, last, is the one kept
			slot := in.frame(e, c)
			if got := transport.AppendFrame(slot[:0], reportFrame(e, psr)); len(got) != len(slot) {
				return nil, fmt.Errorf("epoch %d: report frame encodes to %d bytes, want %d", e, len(got), len(slot))
			}
		}
	}
	return in, nil
}

// throwawaySources rebuilds sources lo..hi-1 from the key ring, as a
// provisioning tool would install them.
func throwawaySources(ring *prf.KeyRing, params core.Params, lo, hi int) ([]*core.Source, error) {
	srcs := make([]*core.Source, 0, hi-lo)
	for i := lo; i < hi; i++ {
		global, ki, err := ring.SourceCredentials(i)
		if err != nil {
			return nil, err
		}
		s, err := core.NewSource(i, global, ki, params)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, s)
	}
	return srcs, nil
}

// pace sends epochs from..to open-loop, the k-th due at start + k·period. A
// generator that falls behind sends its backlog at once and never skips an
// epoch; every latency counts from the epoch's due time.
func (p *pass) pace(t *tree, in *inputs, from, to int, window bool) error {
	defer preciseSleeps()()
	start := time.Now().Add(2 * time.Millisecond)
	perSlice := int(p.opt.w.rate)
	sliceCPU := cpuTime()
	for e := from; e <= to; e++ {
		due := start.Add(time.Duration(e-from) * p.period)
		p.due[e] = int64(due.Sub(p.base))
		sleepUntil(due)
		p.sendAt[e] = int64(time.Since(p.base))
		if err := p.send(t, in, e, window); err != nil {
			return fmt.Errorf("sending epoch %d: %w", e, err)
		}
		p.sentAt[e] = int64(time.Since(p.base))
		if window && (e-from+1)%perSlice == 0 {
			now := cpuTime()
			p.cpuSlices = append(p.cpuSlices, float64(now-sliceCPU)/1e6/float64(perSlice))
			sliceCPU = now
		}
		if e%256 == 0 {
			if err := p.ledger.err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// send delivers epoch e's readings: one Report per source, or one merged
// frame per subtree link. The traced window times each call.
func (p *pass) send(t *tree, in *inputs, e int, window bool) error {
	timed := window && p.probe != nil
	var t0 time.Time
	if t.w.wide {
		for c, conn := range t.links {
			if timed {
				t0 = time.Now()
			}
			if _, err := conn.Write(in.frame(e, c)); err != nil {
				return err
			}
			if timed {
				p.sendNs += int64(time.Since(t0))
				p.sends++
			}
		}
		return nil
	}
	for i, s := range t.srcs {
		if timed {
			t0 = time.Now()
		}
		if err := s.Report(prf.Epoch(e), reading(p.opt.seed, e, i)); err != nil {
			return err
		}
		if timed {
			p.sendNs += int64(time.Since(t0))
			p.sends++
		}
	}
	return nil
}

// sleepMargin is how long before a due time the generator leaves the
// runtime timer for nanosleep. With every P idle the runtime waits in epoll
// with a millisecond timeout, so a runtime timer can wake a millisecond late.
const sleepMargin = 1500 * time.Microsecond

// preciseSleeps pins the calling goroutine to its thread and sets the
// thread's timer slack to 1 ns, so a nanosleep is not deferred by the
// kernel's default 50 µs slack. The returned function undoes both.
func preciseSleeps() (undo func()) {
	runtime.LockOSThread()
	old, _, _ := syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_GET_TIMERSLACK, 0, 0)
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
	return func() {
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, old, 0)
		runtime.UnlockOSThread()
	}
}

// sleepUntil parks on a runtime timer, which hands the generator's P to the
// tree, until sleepMargin before t, then finishes in nanosleep, which wakes
// on time but holds the P in a system call. At star-64's 1 ms period the
// whole wait falls inside the margin; at wide-4k's 20 ms period the P is
// free for most of it.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - sleepMargin; d > 0 {
		time.Sleep(d)
	}
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-reads the clock
	}
}

// tamperCheck sends the spare epoch with one subtree's PSR altered and
// checks that the querier rejects it and the ledger counts it as failed.
func (p *pass) tamperCheck(t *tree, in *inputs, e int) error {
	field := t.q.Params().Field()
	wire := in.spare[0].Bytes()
	var bad core.PSR
	for bit := 0; ; bit++ {
		if bit == 8 {
			return fmt.Errorf("self-check: no one-bit change of epoch %d's PSR stays in the field", e)
		}
		wire[core.PSRSize-1] ^= 1 << bit
		psr, err := core.ParsePSR(wire[:], field)
		if err == nil {
			bad = psr // still a field element: only verification can catch it
			break
		}
		wire[core.PSRSize-1] ^= 1 << bit
	}
	for c, frame := range [][]byte{transport.AppendFrame(nil, reportFrame(e, bad)), in.frame(e, 1)} {
		if _, err := t.links[c].Write(frame); err != nil {
			return fmt.Errorf("self-check: %w", err)
		}
	}
	if err := p.ledger.waitEpoch(e, time.Now().Add(answerGrace)); err != nil {
		return fmt.Errorf("self-check: %w", err)
	}
	if st, _ := p.ledger.outcome(e); st != rejected {
		return fmt.Errorf("self-check: tampered epoch %d came back %s, want rejected", e, st)
	}
	p.selfCheck = fmt.Sprintf("epoch %d with a tampered subtree PSR was rejected and counted failed", e)
	return nil
}

// attempted counts the window's epochs.
func (p *pass) attempted() int { return p.last - p.first + 1 }

// failedOps counts window epochs that were rejected, partial or unanswered.
func (p *pass) failedOps() int {
	n := 0
	for e := p.first; e <= p.last; e++ {
		if st, _ := p.ledger.outcome(e); st != full {
			n++
		}
	}
	return n
}

// latencies returns every window epoch's answer latency in ms, due time to
// verified result; a failed epoch is +Inf, beyond any limit.
func (p *pass) latencies() []float64 {
	out := make([]float64, 0, p.attempted())
	for e := p.first; e <= p.last; e++ {
		st, at := p.ledger.outcome(e)
		if st != full {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, float64(at-p.due[e])/1e6)
	}
	return out
}

// latencyQuantile is the q-quantile of the window's latencies; when it lands
// on a failed epoch it reports the answer deadline instead of infinity.
func (p *pass) latencyQuantile(q float64) float64 {
	s := p.latencies()
	sort.Float64s(s)
	v := quantile(s, q)
	if math.IsInf(v, 1) {
		return float64(answerGrace) / 1e6
	}
	return v
}

func (p *pass) cpuMsPerEpoch() float64 {
	answered := p.attempted() - p.failedOps()
	if answered == 0 {
		return math.NaN()
	}
	return float64(p.after.cpu()-p.before.cpu()) / 1e6 / float64(answered)
}
