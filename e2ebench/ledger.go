package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/sies/sies/internal/transport"
)

// reading is source i's reading in epoch e: a counter-based PRNG (the
// splitmix64 finaliser over seed, epoch and id), so every input regenerates
// from the seed and the oracle keeps no N×epochs table.
func reading(seed uint64, e, i int) uint64 {
	z := seed ^ uint64(e)*0x9e3779b97f4a7c15 ^ uint64(i)*0xd1b54a32d192ed03
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z & 0xffff
}

type status uint8

const (
	pending  status = iota // not answered (yet)
	full                   // verified exact SUM over every source
	rejected               // the querier rejected the epoch
	partial                // exact SUM, but not over every source
)

func (s status) String() string {
	return [...]string{"unanswered", "full", "rejected", "partial"}[s]
}

// ledger is the exact-answer oracle. It judges every EpochResult against the
// SUM the seed implies and keeps each epoch's outcome and answer time. A
// wrong SUM, an answer for an epoch never sent or a second answer for one
// epoch is fatal: the run stops without a result.
type ledger struct {
	seed     uint64
	n        int
	expected []uint64 // exact SUM per epoch, fixed before any epoch is sent
	base     time.Time

	mu       sync.Mutex
	st       []status
	at       []int64 // answer time, ns since base
	answered int
	fatal    error
}

func newLedger(seed uint64, n int, expected []uint64, base time.Time, tab *table) *ledger {
	return &ledger{
		seed: seed, n: n, expected: expected, base: base,
		st: alloc[status](tab, len(expected)),
		at: alloc[int64](tab, len(expected)),
	}
}

// collect records results until the querier closes its Results channel.
func (l *ledger) collect(results <-chan transport.EpochResult) {
	for res := range results {
		l.record(res, int64(time.Since(l.base)))
	}
}

func (l *ledger) record(res transport.EpochResult, at int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fatal != nil {
		return
	}
	e := int(res.Epoch)
	if e < 1 || e >= len(l.st) {
		l.fatal = fmt.Errorf("result for epoch %d, which was never sent", e)
		return
	}
	if l.st[e] != pending {
		l.fatal = fmt.Errorf("epoch %d answered twice", e)
		return
	}
	st, err := l.judge(res)
	if err != nil {
		l.fatal = err
		return
	}
	l.st[e], l.at[e] = st, at
	l.answered++
}

// judge classifies one result. A partial answer must still be exact over
// the contributors it names.
func (l *ledger) judge(res transport.EpochResult) (status, error) {
	e := int(res.Epoch)
	if res.Err != nil {
		return rejected, nil
	}
	want := l.expected[e]
	if !res.Partial && len(res.Failed) == 0 && res.Contributors == l.n {
		if res.Sum != want {
			return 0, fmt.Errorf("epoch %d: SUM %d, want %d", e, res.Sum, want)
		}
		return full, nil
	}
	for _, id := range res.Failed {
		if id < 0 || id >= l.n {
			return 0, fmt.Errorf("epoch %d: failed source %d outside the deployment", e, id)
		}
		want -= reading(l.seed, e, id)
	}
	if res.Sum != want {
		return 0, fmt.Errorf("epoch %d: partial SUM %d without %d sources, want %d", e, res.Sum, len(res.Failed), want)
	}
	return partial, nil
}

// wait blocks until `count` epochs are answered or the deadline passes.
func (l *ledger) wait(count int, deadline time.Time) error {
	return l.until(func() bool { return l.answered >= count }, deadline)
}

// waitEpoch blocks until epoch e is answered or the deadline passes.
func (l *ledger) waitEpoch(e int, deadline time.Time) error {
	return l.until(func() bool { return l.st[e] != pending }, deadline)
}

// until polls done, under the lock, until it holds, the run turns fatal or
// the deadline passes.
func (l *ledger) until(done func() bool, deadline time.Time) error {
	for {
		l.mu.Lock()
		ok, err := done(), l.fatal
		l.mu.Unlock()
		if err != nil || ok || time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// outcome returns epoch e's status and answer time.
func (l *ledger) outcome(e int) (status, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st[e], l.at[e]
}

func (l *ledger) err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fatal
}
