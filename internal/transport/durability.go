// Durable node state: the transport nodes' crash-recovery layer over
// internal/durable.
//
// A querier or aggregator given a state directory journals its epoch
// lifecycle — contributions accepted, epochs committed, quarantine verdicts —
// and checkpoints the fold of that journal into an atomic snapshot. Restart
// recovery is snapshot ⊕ journal replay, and restores the exact pre-crash
// epoch frontier:
//
//   - a committed epoch is never re-answered: the querier re-acks the stored
//     result instead of re-evaluating, the aggregator never re-opens it;
//   - a contribution is never double-counted: re-sent reports land in the
//     same child slot (overwrite dedup), re-flushed epochs dedup at the
//     querier's committed window;
//   - confirmed culprits stay quarantined: the registry snapshot rides in
//     the journal (on every new verdict) and the checkpoint.
//
// Write ordering encodes the consistency contract. The querier journals a
// commit record (fsynced) before emitting the result. The aggregator writes
// upstream first and journals the commit after: a crash between the two
// re-flushes the epoch on restart — at-least-once delivery — and the
// querier's committed window turns that into exactly-once commit. Journal
// replay is idempotent, so the checkpoint's two steps (snapshot, then journal
// reset) need no atomicity across the pair: a crash between them merely
// replays records the snapshot already covers.
//
// What is deliberately NOT persisted: quarantine decay ticks between
// checkpoints (a restart can only lengthen a quarantine, never shorten it —
// the safe direction) and the schedule's cached EpochStates (pure functions
// of the key ring, cheaper to re-derive than to validate).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/durable"
	"github.com/sies/sies/internal/prf"
)

// stateVersion is the snapshot format version both node roles write.
const stateVersion = 1

// Journal record types.
const (
	recQuerierCommit uint8 = 1 // epoch u64, kind u8, sum u64, failed ids
	recQuarantine    uint8 = 2 // core.Quarantine snapshot blob
	recAggContrib    uint8 = 3 // epoch u64, kind u8, [psr], covers ids, failed ids
	recAggCommit     uint8 = 4 // epoch u64
)

// Epoch-outcome kinds carried in querier commit records.
const (
	kindFull uint8 = iota
	kindPartial
	kindEmpty
	kindRejected
)

// Default sizing for the durable bookkeeping windows.
const (
	// DefaultCheckpointEvery is how many committed epochs elapse between
	// snapshot checkpoints.
	DefaultCheckpointEvery = 64
	// DefaultMissedCap bounds the per-source missed-epoch counters in Health:
	// enough to profile any plausible deployment's flapping set, while a
	// hostile or churning id space cannot grow the map without limit.
	DefaultMissedCap = 4096
	// DefaultCommittedCap is the committed-epoch dedup window. Duplicate
	// suppression beyond it is best-effort, which the protocol tolerates —
	// a re-evaluated epoch yields the same verified result.
	DefaultCommittedCap = 1 << 16
)

// DurabilityStats surfaces the crash-recovery bookkeeping through Health and
// the soak artifacts.
type DurabilityStats struct {
	Enabled         bool   `json:"enabled"`
	Commits         uint64 `json:"commits"`           // commit records appended this run
	Checkpoints     uint64 `json:"checkpoints"`       // snapshots written this run
	JournalErrors   uint64 `json:"journal_errors"`    // appends/checkpoints that failed (durability degraded)
	ReplayedRecords int    `json:"replayed_records"`  // journal records recovered at boot
	ReplayedFromWAL uint64 `json:"replayed_frontier"` // epoch frontier restored at boot
	TornBytes       int64  `json:"torn_bytes"`        // torn-tail bytes truncated at boot
	DedupHits       uint64 `json:"dedup_hits"`        // frames for already-committed epochs dropped
}

// durCounters holds the run-time durability counters as atomics, so stats
// snapshots never contend with the commit path and metric scrapes never take
// a node lock. The boot-time fields (ReplayedRecords, TornBytes, frontier)
// are written once before the node serves and live in the boot snapshot.
type durCounters struct {
	commits       atomic.Uint64
	checkpoints   atomic.Uint64
	journalErrors atomic.Uint64
	dedupHits     atomic.Uint64
}

// snapshot merges the live counters over the boot-time baseline.
func (c *durCounters) snapshot(boot DurabilityStats) DurabilityStats {
	boot.Commits = c.commits.Load()
	boot.Checkpoints = c.checkpoints.Load()
	boot.JournalErrors = c.journalErrors.Load()
	boot.DedupHits = c.dedupHits.Load()
	return boot
}

// ackInfo is the remembered outcome of a committed epoch, replayed as the
// result ack when the root re-sends that epoch.
type ackInfo struct {
	sum uint64
	ok  bool
}

// appendIDs writes a u32 count followed by u32 ids.
func appendIDs(b []byte, ids []int) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		b = binary.BigEndian.AppendUint32(b, uint32(id))
	}
	return b
}

// errBadRecord reports a malformed journal or snapshot payload. Replay treats
// it as corruption: recovery stops, the node starts from what was intact.
var errBadRecord = errors.New("transport: malformed durable record")

// cursor is a bounds-checked reader over record/snapshot payloads.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) u8() uint8 {
	if c.err != nil || len(c.b) < 1 {
		c.err = errBadRecord
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *cursor) u32() uint32 {
	if c.err != nil || len(c.b) < 4 {
		c.err = errBadRecord
		return 0
	}
	v := binary.BigEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil || len(c.b) < 8 {
		c.err = errBadRecord
		return 0
	}
	v := binary.BigEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

func (c *cursor) ids() []int {
	n := c.u32()
	if c.err != nil || uint64(n)*4 > uint64(len(c.b)) {
		c.err = errBadRecord
		return nil
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = int(c.u32())
	}
	return ids
}

func (c *cursor) bytes(n int) []byte {
	if c.err != nil || n < 0 || len(c.b) < n {
		c.err = errBadRecord
		return nil
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v
}

func (c *cursor) blob() []byte {
	n := c.u32()
	return c.bytes(int(n))
}

func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errBadRecord, len(c.b))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Querier durable state

// querierState is the durable side of a QuerierNode. All mutation happens on
// the serve goroutine under qn.mu; the journal has its own lock.
type querierState struct {
	store           *durable.Store
	checkpointEvery int
	sinceCheckpoint int
	boot            DurabilityStats // boot-time fields, fixed before serving
	ctr             durCounters
	quarBlob        []byte // restored registry, applied by EnableForensics
}

// encodeQuerierCommit frames one epoch outcome.
func encodeQuerierCommit(t prf.Epoch, kind uint8, sum uint64, failed []int) []byte {
	b := binary.BigEndian.AppendUint64(nil, uint64(t))
	b = append(b, kind)
	b = binary.BigEndian.AppendUint64(b, sum)
	return appendIDs(b, failed)
}

func decodeQuerierCommit(p []byte) (t prf.Epoch, kind uint8, sum uint64, failed []int, err error) {
	c := &cursor{b: p}
	t = prf.Epoch(c.u64())
	kind = c.u8()
	sum = c.u64()
	failed = c.ids()
	return t, kind, sum, failed, c.done()
}

// querierSnapshot encodes the full recoverable querier state under qn.mu.
// The health counters read from the obs registry's atomics; the wire order
// (epochs, full, partial, empty, rejected, root-reconnects) is the snapshot
// format and must not change.
func (qn *QuerierNode) querierSnapshot() []byte {
	b := binary.BigEndian.AppendUint64(nil, qn.lastEval)
	for _, v := range []uint64{
		qn.obs.served.Value(), qn.obs.full.Value(), qn.obs.partial.Value(),
		qn.obs.empty.Value(), qn.obs.rejected.Value(), qn.obs.rootReconnects.Value(),
	} {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(qn.missed.len()))
	qn.missed.each(func(id int, n uint64) {
		b = binary.BigEndian.AppendUint32(b, uint32(id))
		b = binary.BigEndian.AppendUint64(b, n)
	})
	b = binary.BigEndian.AppendUint32(b, uint32(qn.committed.len()))
	qn.committed.each(func(epoch uint64, ack ackInfo) {
		b = binary.BigEndian.AppendUint64(b, epoch)
		b = binary.BigEndian.AppendUint64(b, ack.sum)
		var ok uint8
		if ack.ok {
			ok = 1
		}
		b = append(b, ok)
	})
	sched := qn.sched.Snapshot()
	b = binary.BigEndian.AppendUint32(b, uint32(len(sched)))
	b = append(b, sched...)
	quar := qn.quarantineSnapshot()
	b = binary.BigEndian.AppendUint32(b, uint32(len(quar)))
	return append(b, quar...)
}

// quarantineSnapshot returns the live registry's snapshot, or the restored
// blob when forensics has not been enabled (yet) this run — a node restarted
// without forensics must still carry the registry forward.
func (qn *QuerierNode) quarantineSnapshot() []byte {
	if qn.forensics != nil {
		return qn.forensics.quarantine.Snapshot()
	}
	if qn.state != nil {
		return qn.state.quarBlob
	}
	return nil
}

// restoreQuerierSnapshot applies a checkpoint payload. Called once from the
// constructor, before any connection is accepted.
func (qn *QuerierNode) restoreQuerierSnapshot(p []byte) error {
	c := &cursor{b: p}
	qn.lastEval = c.u64()
	// Counters restore by adding into the freshly zeroed obs counters — the
	// registry is the only store, there is no struct copy to assign.
	qn.obs.served.Add(c.u64())
	qn.obs.full.Add(c.u64())
	qn.obs.partial.Add(c.u64())
	qn.obs.empty.Add(c.u64())
	qn.obs.rejected.Add(c.u64())
	qn.obs.rootReconnects.Add(c.u64())
	nm := c.u32()
	for i := uint32(0); i < nm && c.err == nil; i++ {
		id := int(c.u32())
		qn.missed.put(id, c.u64())
	}
	nc := c.u32()
	for i := uint32(0); i < nc && c.err == nil; i++ {
		epoch := c.u64()
		sum := c.u64()
		ok := c.u8() == 1
		qn.committed.put(epoch, ackInfo{sum: sum, ok: ok})
	}
	schedBlob := c.blob()
	quarBlob := c.blob()
	if err := c.done(); err != nil {
		return err
	}
	if len(schedBlob) > 0 {
		if err := qn.sched.Restore(schedBlob); err != nil {
			return err
		}
	}
	if len(quarBlob) > 0 {
		qn.state.quarBlob = append([]byte(nil), quarBlob...)
	}
	return nil
}

// openQuerierState loads the state directory and replays its journal into
// the (freshly constructed, not yet serving) node.
func (qn *QuerierNode) openQuerierState(dir string, checkpointEvery int) error {
	store, recs, err := durable.Open(dir)
	if err != nil {
		return fmt.Errorf("transport: opening querier state: %w", err)
	}
	if checkpointEvery <= 0 {
		checkpointEvery = DefaultCheckpointEvery
	}
	qn.state = &querierState{store: store, checkpointEvery: checkpointEvery}
	qn.state.boot.Enabled = true
	qn.state.boot.ReplayedRecords = len(recs)
	qn.state.boot.TornBytes = store.Journal().TruncatedBytes()

	version, payload, err := store.LoadSnapshot()
	switch {
	case errors.Is(err, durable.ErrNoSnapshot):
	case err != nil:
		store.Close()
		return fmt.Errorf("transport: querier snapshot: %w", err)
	case version != stateVersion:
		store.Close()
		return fmt.Errorf("transport: querier snapshot version %d, want %d", version, stateVersion)
	default:
		if err := qn.restoreQuerierSnapshot(payload); err != nil {
			store.Close()
			return fmt.Errorf("transport: querier snapshot: %w", err)
		}
	}

	// Journal replay: re-apply commits newer than the snapshot. Records the
	// snapshot already covers hit the committed window and fall out as no-ops
	// (the torn-checkpoint case).
	for _, rec := range recs {
		switch rec.Type {
		case recQuerierCommit:
			t, kind, sum, failed, err := decodeQuerierCommit(rec.Payload)
			if err != nil {
				store.Close()
				return fmt.Errorf("transport: querier journal: %w", err)
			}
			if qn.committed.has(uint64(t)) {
				continue
			}
			qn.committed.put(uint64(t), ackInfo{sum: sum, ok: kind <= kindPartial})
			if uint64(t) > qn.lastEval {
				qn.lastEval = uint64(t)
			}
			switch kind {
			case kindFull:
				qn.obs.served.Inc()
				qn.obs.full.Inc()
			case kindPartial:
				qn.obs.served.Inc()
				qn.obs.partial.Inc()
			case kindEmpty:
				qn.obs.empty.Inc()
			default:
				qn.obs.rejected.Inc()
			}
			if kind != kindRejected {
				for _, id := range failed {
					qn.bumpMissed(id)
				}
			}
		case recQuarantine:
			qn.state.quarBlob = append([]byte(nil), rec.Payload...)
		}
	}
	qn.state.boot.ReplayedFromWAL = qn.lastEval
	return nil
}

// bumpMissed increments one source's missed-epoch counter in the bounded map.
// Sources that departed gracefully (a leave notice reconciled into the tree
// view) are expected to be absent, so their counters stop accruing.
func (qn *QuerierNode) bumpMissed(id int) {
	if qn.tree.departed(id) {
		return
	}
	n, _ := qn.missed.get(id)
	qn.missed.put(id, n+1)
}

// commitDurable journals one epoch outcome and checkpoints on cadence.
// Called under qn.mu from record(); the fsync rides the append (SyncEvery 1),
// so the commit is stable before the result is emitted or acked.
func (qn *QuerierNode) commitDurable(res EpochResult, kind uint8) {
	st := qn.state
	if st == nil || qn.crashed {
		return
	}
	rec := durable.Record{
		Type:    recQuerierCommit,
		Payload: encodeQuerierCommit(res.Epoch, kind, res.Sum, res.Failed),
	}
	if err := st.store.Journal().Append(rec); err != nil {
		st.ctr.journalErrors.Add(1)
		return
	}
	st.ctr.commits.Add(1)
	st.sinceCheckpoint++
	if st.sinceCheckpoint >= st.checkpointEvery {
		if err := st.store.Checkpoint(stateVersion, qn.querierSnapshot()); err != nil {
			st.ctr.journalErrors.Add(1)
			return
		}
		st.sinceCheckpoint = 0
		st.ctr.checkpoints.Add(1)
	}
}

// persistQuarantine journals the registry after a new verdict so confirmed
// culprits survive a crash that beats the next checkpoint.
func (qn *QuerierNode) persistQuarantine() {
	qn.mu.Lock()
	defer qn.mu.Unlock()
	st := qn.state
	if st == nil || qn.forensics == nil || qn.crashed {
		return
	}
	blob := qn.forensics.quarantine.Snapshot()
	st.quarBlob = blob
	if err := st.store.Journal().Append(durable.Record{Type: recQuarantine, Payload: blob}); err != nil {
		st.ctr.journalErrors.Add(1)
	}
}

// committedAck returns the stored ack when t was already committed — the
// re-answer suppression path.
func (qn *QuerierNode) committedAck(t prf.Epoch) (ackInfo, bool) {
	qn.mu.Lock()
	defer qn.mu.Unlock()
	ack, ok := qn.committed.get(uint64(t))
	if ok && qn.state != nil {
		qn.state.ctr.dedupHits.Add(1)
	}
	return ack, ok
}

// closeState syncs and closes the durable store when Run winds down.
func (qn *QuerierNode) closeState() {
	qn.mu.Lock()
	st := qn.state
	qn.mu.Unlock()
	if st != nil {
		st.store.Close()
	}
}

// DurabilityStats snapshots the crash-recovery counters (zero value when the
// node runs without a state directory). Lock-free: the state pointer is fixed
// after construction and the run-time counters are atomics.
func (qn *QuerierNode) DurabilityStats() DurabilityStats {
	if qn.state == nil {
		return DurabilityStats{}
	}
	return qn.state.ctr.snapshot(qn.state.boot)
}

// ---------------------------------------------------------------------------
// Aggregator durable state

// aggState is the durable side of an AggregatorNode. Construction-time replay
// happens before Run starts; at run time the merge workers append and commit
// concurrently — the journal is internally locked, and the checkpoint cadence
// rides its own small mutex.
type aggState struct {
	store           *durable.Store
	checkpointEvery int
	ckptMu          sync.Mutex // guards sinceCheckpoint and snapshot building
	sinceCheckpoint int
	boot            DurabilityStats // boot-time fields, fixed before serving
	ctr             durCounters
	// recovered holds journal-replayed contributions of still-open epochs,
	// keyed by epoch then by the child's coverage key. Run folds them into
	// its pending map once the child slots exist.
	recovered map[prf.Epoch]map[string]report
}

// encodeAggContrib frames one child contribution.
func encodeAggContrib(t prf.Epoch, covers []int, psr *core.PSR, failed []int) []byte {
	b := binary.BigEndian.AppendUint64(nil, uint64(t))
	if psr != nil {
		b = append(b, 0)
		wire := psr.Bytes()
		b = append(b, wire[:]...)
	} else {
		b = append(b, 1)
	}
	b = appendIDs(b, covers)
	return appendIDs(b, failed)
}

func (a *AggregatorNode) decodeAggContrib(p []byte) (t prf.Epoch, covers []int, psr *core.PSR, failed []int, err error) {
	c := &cursor{b: p}
	t = prf.Epoch(c.u64())
	kind := c.u8()
	if kind == 0 {
		raw := c.bytes(core.PSRSize)
		if c.err == nil {
			parsed, perr := core.ParsePSR(raw, a.field)
			if perr != nil {
				return 0, nil, nil, nil, perr
			}
			psr = &parsed
		}
	}
	covers = c.ids()
	failed = c.ids()
	return t, covers, psr, failed, c.done()
}

// aggSnapshot encodes the flush frontier. Pending contributions stay in the
// journal (checkpointing re-appends them after the reset).
func (a *AggregatorNode) aggSnapshot() []byte {
	b := binary.BigEndian.AppendUint64(nil, a.lastFlushed.Load())
	flushed := a.table.flushedEpochs()
	b = binary.BigEndian.AppendUint32(b, uint32(len(flushed)))
	for _, epoch := range flushed {
		b = binary.BigEndian.AppendUint64(b, epoch)
	}
	return b
}

func (a *AggregatorNode) restoreAggSnapshot(p []byte) error {
	c := &cursor{b: p}
	a.lastFlushed.Store(c.u64())
	n := c.u32()
	for i := uint32(0); i < n && c.err == nil; i++ {
		a.table.markFlushed(c.u64())
	}
	return c.done()
}

// openAggState loads the state directory and replays the journal into the
// not-yet-listening node.
func (a *AggregatorNode) openAggState(dir string, checkpointEvery int) error {
	store, recs, err := durable.Open(dir)
	if err != nil {
		return fmt.Errorf("transport: opening aggregator state: %w", err)
	}
	if checkpointEvery <= 0 {
		checkpointEvery = DefaultCheckpointEvery
	}
	a.state = &aggState{
		store:           store,
		checkpointEvery: checkpointEvery,
		recovered:       map[prf.Epoch]map[string]report{},
	}
	a.state.boot.Enabled = true
	a.state.boot.ReplayedRecords = len(recs)
	a.state.boot.TornBytes = store.Journal().TruncatedBytes()
	// Contributions are recoverable from children's re-sends; only commit
	// records need their own fsync (flush issues it explicitly).
	store.Journal().SyncEvery = 1 << 30

	version, payload, err := store.LoadSnapshot()
	switch {
	case errors.Is(err, durable.ErrNoSnapshot):
	case err != nil:
		store.Close()
		return fmt.Errorf("transport: aggregator snapshot: %w", err)
	case version != stateVersion:
		store.Close()
		return fmt.Errorf("transport: aggregator snapshot version %d, want %d", version, stateVersion)
	default:
		if err := a.restoreAggSnapshot(payload); err != nil {
			store.Close()
			return fmt.Errorf("transport: aggregator snapshot: %w", err)
		}
	}

	for _, rec := range recs {
		switch rec.Type {
		case recAggContrib:
			t, covers, psr, failed, err := a.decodeAggContrib(rec.Payload)
			if err != nil {
				store.Close()
				return fmt.Errorf("transport: aggregator journal: %w", err)
			}
			if a.table.hasFlushed(uint64(t)) {
				continue // already settled; a torn checkpoint's leftover
			}
			byKey := a.state.recovered[t]
			if byKey == nil {
				byKey = map[string]report{}
				a.state.recovered[t] = byKey
			}
			byKey[coversKey(covers)] = report{epoch: t, psr: psr, failed: failed, covers: covers}
		case recAggCommit:
			c := &cursor{b: rec.Payload}
			t := c.u64()
			if err := c.done(); err != nil {
				store.Close()
				return fmt.Errorf("transport: aggregator journal: %w", err)
			}
			a.table.markFlushed(t)
			if t > a.lastFlushed.Load() {
				a.lastFlushed.Store(t)
			}
			delete(a.state.recovered, prf.Epoch(t))
		}
	}
	a.state.boot.ReplayedFromWAL = a.lastFlushed.Load()
	return nil
}

// journalErr counts a failed durable write (durability degraded, node keeps
// serving). Atomic — no lock needed.
func (a *AggregatorNode) journalErr() {
	a.state.ctr.journalErrors.Add(1)
}

// journalContribution records one accepted child report before it enters the
// pending epoch. Unsynced: a lost contribution degrades to the pre-durability
// behaviour (the child's subtree reports as failed), never to a double count.
func (a *AggregatorNode) journalContribution(rep report, covers []int) {
	st := a.state
	if st == nil || a.isCrashed() {
		return
	}
	rec := durable.Record{Type: recAggContrib, Payload: encodeAggContrib(rep.epoch, covers, rep.psr, rep.failed)}
	if err := st.store.Journal().Append(rec); err != nil {
		a.journalErr()
	}
}

// commitFlush journals an epoch commit (fsynced) after its upstream write,
// and checkpoints on cadence, re-journaling contributions of still-open
// epochs so the reset cannot orphan them. Called concurrently by the merge
// workers: the journal serialises appends internally, and ckptMu makes the
// cadence check + snapshot build atomic. A contribution appended between the
// snapshot build and the journal reset can be lost to the reset — that epoch
// re-flushes after a restart from the children's re-sends, the documented
// at-least-once path the querier's committed window dedups.
func (a *AggregatorNode) commitFlush(t prf.Epoch) {
	st := a.state
	if st == nil || a.isCrashed() {
		return
	}
	rec := durable.Record{Type: recAggCommit, Payload: binary.BigEndian.AppendUint64(nil, uint64(t))}
	err := st.store.Journal().Append(rec)
	if err == nil {
		err = st.store.Journal().Sync()
	}
	if err != nil {
		a.journalErr()
		return
	}
	st.ctr.commits.Add(1)
	st.ckptMu.Lock()
	st.sinceCheckpoint++
	if st.sinceCheckpoint < st.checkpointEvery {
		st.ckptMu.Unlock()
		return
	}
	st.sinceCheckpoint = 0
	payload := a.aggSnapshot()
	st.ckptMu.Unlock()
	if err := st.store.Checkpoint(stateVersion, payload); err != nil {
		a.journalErr()
		return
	}
	st.ctr.checkpoints.Add(1)
	a.table.eachReport(func(rep report) {
		// The report's own acceptance-time coverage snapshot, not the slot's
		// current claim — a steal between acceptance and checkpoint must not
		// rewrite what this PSR vouches for.
		a.journalContribution(rep, rep.covers)
	})
	if err := st.store.Journal().Sync(); err != nil {
		a.journalErr()
	}
}

// DurabilityStats snapshots the crash-recovery counters (zero value when the
// node runs without a state directory). Lock-free: the state pointer is fixed
// after construction and the run-time counters are atomics.
func (a *AggregatorNode) DurabilityStats() DurabilityStats {
	if a.state == nil {
		return DurabilityStats{}
	}
	return a.state.ctr.snapshot(a.state.boot)
}
