// Key-schedule engine for the querier's evaluation phase.
//
// Table 3 of the paper makes the querier the Θ(N)-HMAC bottleneck: every
// epoch it re-derives k_{i,t} and ss_{i,t} for each contributing source. The
// Schedule type turns that cost into something a multi-core querier can
// amortise three independent ways:
//
//   - Parallelism: the HMAC fan-out over source ids has no data dependencies,
//     so the per-source derivations are chunked across a worker pool and the
//     commutative partial sums (Σ k_{i,t} mod p and the plain 256-bit Σ ss)
//     are combined at the end.
//   - Caching: prepared EpochStates are kept in an LRU keyed by
//     (epoch, contributor-set digest), so duplicate sinks, retransmitted
//     final PSRs and partial-SUM re-checks cost a constant number of field
//     operations instead of Θ(N) HMACs. Concurrent requests for the same key
//     coalesce onto one derivation (singleflight).
//   - Prefetch: epochs are known in advance (t, t+1, t+2, …), so serving
//     epoch t kicks off the derivation of (t+1, same contributor set) in the
//     background; by the time the next final PSR arrives its schedule is
//     usually already resident.
//
// Prefetching never weakens freshness: an EpochState is a pure function of
// (t, contributor set) over the long-term key ring, carries no per-PSR state,
// and verification still compares the embedded aggregate secret against the
// recomputed Σ ss_{i,t} for exactly the epoch and subset being evaluated. A
// cached entry for the wrong epoch or subset can never be consulted because
// both are part of the cache key.
package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/uint256"
)

// DefaultScheduleCacheSize is the EpochState LRU capacity when
// ScheduleConfig.CacheSize is zero: enough for the in-flight window of a
// deployment with several duplicate sinks plus forensic re-checks, while one
// entry costs only a few hundred bytes.
const DefaultScheduleCacheSize = 128

// ScheduleConfig tunes a Schedule.
type ScheduleConfig struct {
	// Workers caps the goroutines deriving per-source keys for one epoch;
	// zero or negative means GOMAXPROCS.
	Workers int
	// CacheSize is the EpochState LRU capacity; zero or negative means
	// DefaultScheduleCacheSize.
	CacheSize int
	// Prefetch derives epoch t+1's schedule in the background whenever epoch
	// t is requested.
	Prefetch bool
}

// ScheduleStats is a snapshot of a Schedule's counters, exposed through the
// transport Health() surface and the CLIs.
type ScheduleStats struct {
	Derivations  uint64        // per-source (k_{i,t}, ss_{i,t}) derivations performed
	Hits         uint64        // EpochState requests served from the cache
	Misses       uint64        // EpochState requests that had to derive
	Prefetches   uint64        // background derivations started
	PrefetchWins uint64        // requests whose entry a prefetch had produced
	Evaluations  uint64        // PSRs evaluated through the schedule
	EvalTime     time.Duration // cumulative Evaluate latency (post-derivation)
}

// AvgEvalTime is the mean per-PSR evaluation latency.
func (s ScheduleStats) AvgEvalTime() time.Duration {
	if s.Evaluations == 0 {
		return 0
	}
	return s.EvalTime / time.Duration(s.Evaluations)
}

// scheduleKey identifies one cached EpochState: the epoch plus a digest of
// the canonical contributor set (the full set shares one sentinel digest).
type scheduleKey struct {
	epoch prf.Epoch
	set   [sha256.Size]byte
}

// fullSetDigest is the sentinel digest for "all sources contribute".
var fullSetDigest = sha256.Sum256([]byte("sies/schedule/full-contributor-set"))

func setDigest(ids []int) [sha256.Size]byte {
	if ids == nil {
		return fullSetDigest
	}
	h := sha256.New()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(len(ids)))
	h.Write(b[:])
	for _, id := range ids {
		binary.BigEndian.PutUint64(b[:], uint64(id))
		h.Write(b[:])
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// scheduleEntry is one cache slot. done closes when es/err are final, so
// concurrent requests for the same key wait instead of re-deriving.
type scheduleEntry struct {
	done       chan struct{}
	es         *EpochState
	err        error
	prefetched bool
	claimed    atomic.Bool // first foreground use of a prefetched entry
	elem       *list.Element
}

// Schedule is a concurrency-safe key-schedule engine for one Querier.
type Schedule struct {
	q        *Querier
	workers  int
	prefetch bool
	capacity int

	mu      sync.Mutex
	entries map[scheduleKey]*scheduleEntry
	order   *list.List // of scheduleKey; front = most recently used

	derivations  atomic.Uint64
	hits         atomic.Uint64
	misses       atomic.Uint64
	prefetches   atomic.Uint64
	prefetchWins atomic.Uint64
	evaluations  atomic.Uint64
	evalNanos    atomic.Uint64
}

// NewSchedule wraps a querier in a key-schedule engine.
func NewSchedule(q *Querier, cfg ScheduleConfig) *Schedule {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	capacity := cfg.CacheSize
	if capacity <= 0 {
		capacity = DefaultScheduleCacheSize
	}
	return &Schedule{
		q:        q,
		workers:  workers,
		prefetch: cfg.Prefetch,
		capacity: capacity,
		entries:  map[scheduleKey]*scheduleEntry{},
		order:    list.New(),
	}
}

// Querier returns the wrapped querier.
func (s *Schedule) Querier() *Querier { return s.q }

// Stats snapshots the counters.
func (s *Schedule) Stats() ScheduleStats {
	return ScheduleStats{
		Derivations:  s.derivations.Load(),
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Prefetches:   s.prefetches.Load(),
		PrefetchWins: s.prefetchWins.Load(),
		Evaluations:  s.evaluations.Load(),
		EvalTime:     time.Duration(s.evalNanos.Load()),
	}
}

// canonical normalises a contributor list to the cache's canonical form:
// nil for the full set (also recognised when an explicit list covers every
// source), otherwise a sorted copy. Validation matches the direct
// PrepareEpoch path: duplicate, negative or out-of-range ids are rejected
// with ErrBadContributors — a duplicated id silently collapsed here would
// let a hostile failure report double-count a blinding key.
func (s *Schedule) canonical(contributors []int) ([]int, error) {
	ids, err := CheckContributors(s.q.ring.N(), contributors)
	if err != nil {
		return nil, err
	}
	if len(ids) == s.q.ring.N() {
		return nil, nil // explicit full set aliases the fast path
	}
	return ids, nil
}

// EpochState returns the prepared schedule for (t, contributors), deriving it
// in parallel on a miss and serving it from the LRU on a hit. contributors
// follows EvaluateSubset semantics (nil = all sources).
func (s *Schedule) EpochState(t prf.Epoch, contributors []int) (*EpochState, error) {
	ids, err := s.canonical(contributors)
	if err != nil {
		return nil, err
	}
	es, err := s.state(t, ids, false)
	if err == nil && s.prefetch {
		s.prefetchAhead(t+1, ids)
	}
	return es, err
}

// Evaluate decrypts and verifies a final PSR through the cached schedule —
// the drop-in replacement for Querier.Evaluate/EvaluateSubset on hot paths.
func (s *Schedule) Evaluate(t prf.Epoch, final PSR, contributors []int) (Result, error) {
	es, err := s.EpochState(t, contributors)
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	res, err := es.Evaluate(final)
	s.evalNanos.Add(uint64(time.Since(start)))
	s.evaluations.Add(1)
	return res, err
}

// state is the cache lookup/derive core. ids must already be canonical.
func (s *Schedule) state(t prf.Epoch, ids []int, isPrefetch bool) (*EpochState, error) {
	key := scheduleKey{epoch: t, set: setDigest(ids)}
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.order.MoveToFront(e.elem)
		s.mu.Unlock()
		if isPrefetch {
			return nil, nil // someone else is already on it
		}
		s.hits.Add(1)
		<-e.done
		if e.prefetched && e.err == nil && e.claimed.CompareAndSwap(false, true) {
			s.prefetchWins.Add(1)
		}
		return e.es, e.err
	}
	e := &scheduleEntry{done: make(chan struct{}), prefetched: isPrefetch}
	e.elem = s.order.PushFront(key)
	s.entries[key] = e
	for s.order.Len() > s.capacity {
		back := s.order.Back()
		delete(s.entries, back.Value.(scheduleKey))
		s.order.Remove(back)
	}
	s.mu.Unlock()
	if isPrefetch {
		s.prefetches.Add(1)
	} else {
		s.misses.Add(1)
	}

	deriveIDs := ids
	if deriveIDs == nil {
		_, deriveIDs = s.q.derivers()
	}
	es, err := s.q.prepareParallel(t, deriveIDs, s.workers)
	s.derivations.Add(uint64(len(deriveIDs)))
	e.es, e.err = es, err
	close(e.done)
	if err != nil {
		// Failed derivations are not cached; the next request retries.
		s.mu.Lock()
		if cur, ok := s.entries[key]; ok && cur == e {
			s.order.Remove(e.elem)
			delete(s.entries, key)
		}
		s.mu.Unlock()
	}
	return es, err
}

// prefetchAhead starts a background derivation for (t, ids) unless an entry
// already exists. ids is canonical and treated as read-only.
func (s *Schedule) prefetchAhead(t prf.Epoch, ids []int) {
	key := scheduleKey{epoch: t, set: setDigest(ids)}
	s.mu.Lock()
	_, ok := s.entries[key]
	s.mu.Unlock()
	if ok {
		return
	}
	go s.state(t, ids, true)
}

// innerBlocks recycles the epoch inner blocks prepareParallel shares with its
// workers; a fresh one per epoch would be 1160 B of garbage.
var innerBlocks = sync.Pool{New: func() any { return new(prf.InnerBlock) }}

// prepareParallel derives an EpochState with the per-source HMAC fan-out
// split across up to `workers` goroutines. Both accumulators are commutative
// — Σ k_{i,t} is a field sum, Σ ss_{i,t} a plain 256-bit sum — so chunked
// partials combine exactly. workers ≤ 1 runs inline with no goroutines (the
// sequential path PrepareEpoch also uses).
//
// Each chunk is one prf.RingDerivers.SumRange call (no HMAC key schedules,
// no allocations) over one epoch's inner block, built here once and shared
// read-only. SumRange adds the raw k_{i,t} into the lazy 512-bit
// accumulator: reduce-then-sum equals sum-then-reduce mod p, so one
// Reduce512 per chunk replaces Θ(N) per-key reductions and field additions.
func (q *Querier) prepareParallel(t prf.Epoch, ids []int, workers int) (*EpochState, error) {
	if len(ids) == 0 {
		return nil, errors.New("sies: no contributing sources")
	}
	field := q.params.Field()
	rd, _ := q.derivers()
	ktRaw := rd.GlobalKey(t)
	Kt := field.Reduce(uint256.MustSetBytes(ktRaw[:]))
	if Kt.IsZero() {
		Kt = uint256.One // mirror Source.epochState
	}
	kInv, err := field.Inv(Kt)
	if err != nil {
		return nil, err
	}

	if workers > len(ids) {
		workers = len(ids)
	}
	blk := innerBlocks.Get().(*prf.InnerBlock)
	defer innerBlocks.Put(blk)
	blk.Set(t)
	type partial struct {
		kSum  uint256.Int
		ssSum uint256.Int
		err   error
	}
	sumChunk := func(chunk []int) partial {
		var p partial
		var kacc uint256.Accumulator
		if p.err = rd.SumRange(blk, chunk, &kacc, &p.ssSum); p.err == nil {
			p.kSum = kacc.Sum(field)
		}
		return p
	}

	var total partial
	if workers <= 1 {
		total = sumChunk(ids)
		if total.err != nil {
			return nil, total.err
		}
	} else {
		parts := make([]partial, workers)
		// Whole vector groups per worker: only the last chunk may leave
		// lanes of the vector engine idle.
		chunk := (len(ids) + workers - 1) / workers
		chunk = (chunk + prf.SweepLanes - 1) / prf.SweepLanes * prf.SweepLanes
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > len(ids) {
				hi = len(ids)
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(w int, chunk []int) {
				defer wg.Done()
				parts[w] = sumChunk(chunk)
			}(w, ids[lo:hi])
		}
		wg.Wait()
		for _, p := range parts {
			if p.err != nil {
				return nil, p.err
			}
			total.kSum = field.Add(total.kSum, p.kSum)
			sum, carry := total.ssSum.Add(p.ssSum)
			if carry != 0 {
				return nil, errors.New("sies: share sum overflowed 256 bits")
			}
			total.ssSum = sum
		}
	}
	return &EpochState{
		querier:  q,
		epoch:    t,
		n:        len(ids),
		kInv:     kInv,
		kSum:     total.kSum,
		expected: total.ssSum,
	}, nil
}
