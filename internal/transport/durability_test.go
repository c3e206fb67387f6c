package transport

import (
	"net"
	"testing"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/durable"
	"github.com/sies/sies/internal/prf"
)

// mergeAll aggregates one PSR per source for the epoch.
func mergeAll(t *testing.T, q *core.Querier, sources []*core.Source, epoch prf.Epoch, values []uint64) core.PSR {
	t.Helper()
	agg := core.NewAggregator(q.Params().Field())
	psrs := make([]core.PSR, len(sources))
	for i, s := range sources {
		psr, err := s.Encrypt(epoch, values[i])
		if err != nil {
			t.Fatal(err)
		}
		psrs[i] = psr
	}
	return agg.Merge(psrs...)
}

// dialRoot performs the root hello handshake against a querier node.
func dialRoot(t *testing.T, addr string, n int) (net.Conn, uint64) {
	t.Helper()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return dialChild(t, addr, ids)
}

// readResult reads the querier's next TypeResult ack.
func readResult(t *testing.T, conn net.Conn) Frame {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("reading result ack: %v", err)
	}
	if f.Type != TypeResult {
		t.Fatalf("expected result ack, got type %d", f.Type)
	}
	conn.SetReadDeadline(time.Time{})
	return f
}

// TestQuerierDurableRecovery drives a durable querier through full, partial
// and empty epochs, restarts it from its state directory and checks that the
// frontier, health counters and committed-epoch window all survive — and that
// a re-sent committed epoch is re-acked without being re-evaluated or
// re-emitted.
func TestQuerierDurableRecovery(t *testing.T) {
	q, sources, err := core.Setup(3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := QuerierConfig{ListenAddr: "127.0.0.1:0", StateDir: dir, CheckpointEvery: 2}

	qn1, err := NewQuerierNodeConfig(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	run1 := make(chan error, 1)
	go func() { run1 <- qn1.Run() }()
	conn, resync := dialRoot(t, qn1.Addr(), 3)
	if resync != 0 {
		t.Fatalf("fresh resync = %d, want 0", resync)
	}

	// Epoch 1: full. Epoch 2: partial (source 2 failed). Epoch 3: empty.
	full := mergeAll(t, q, sources, 1, []uint64{10, 20, 30})
	if err := WriteFrame(conn, Frame{Type: TypePSR, Epoch: 1, Payload: encodeReport(full, nil)}); err != nil {
		t.Fatal(err)
	}
	res1 := <-qn1.Results
	if res1.Err != nil || res1.Sum != 60 {
		t.Fatalf("epoch 1: %+v", res1)
	}
	readResult(t, conn)

	partial := mergeAll(t, q, sources[:2], 2, []uint64{7, 8})
	if err := WriteFrame(conn, Frame{Type: TypePSR, Epoch: 2, Payload: encodeReport(partial, []int{2})}); err != nil {
		t.Fatal(err)
	}
	res2 := <-qn1.Results
	if res2.Err != nil || res2.Sum != 15 || !res2.Partial {
		t.Fatalf("epoch 2: %+v", res2)
	}
	readResult(t, conn)

	if err := WriteFrame(conn, Frame{Type: TypeFailure, Epoch: 3, Payload: core.EncodeContributors([]int{0, 1, 2})}); err != nil {
		t.Fatal(err)
	}
	res3 := <-qn1.Results
	if res3.Err == nil {
		t.Fatalf("epoch 3: %+v", res3)
	}

	// Crash: close without any further ceremony.
	conn.Close()
	qn1.Close()
	if err := <-run1; err != nil {
		t.Fatal(err)
	}

	// Restart from the same state directory.
	qn2, err := NewQuerierNodeConfig(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	defer qn2.Close()
	h := qn2.Health()
	if h.Epochs != 2 || h.Full != 1 || h.Partial != 1 || h.Empty != 1 {
		t.Fatalf("restored health: %+v", h)
	}
	if h.Missed[2] != 2 || h.Missed[0] != 1 || h.Missed[1] != 1 {
		t.Fatalf("restored missed counters: %v", h.Missed)
	}
	if !h.Durability.Enabled || h.Durability.ReplayedFromWAL != 3 {
		t.Fatalf("restored durability stats: %+v", h.Durability)
	}

	run2 := make(chan error, 1)
	go func() { run2 <- qn2.Run() }()
	conn2, resync2 := dialRoot(t, qn2.Addr(), 3)
	defer conn2.Close()
	if resync2 != 3 {
		t.Fatalf("restored resync = %d, want 3", resync2)
	}

	// Re-sending committed epoch 1 re-acks the remembered sum without
	// re-evaluating or re-emitting a result.
	if err := WriteFrame(conn2, Frame{Type: TypePSR, Epoch: 1, Payload: encodeReport(full, nil)}); err != nil {
		t.Fatal(err)
	}
	ack := readResult(t, conn2)
	sum, ok, err := DecodeResult(ack.Payload)
	if err != nil || !ok || sum != 60 {
		t.Fatalf("replayed ack: sum %d ok %v (%v), want 60 true", sum, ok, err)
	}
	select {
	case res := <-qn2.Results:
		t.Fatalf("committed epoch re-emitted a result: %+v", res)
	case <-time.After(100 * time.Millisecond):
	}
	if got := qn2.DurabilityStats().DedupHits; got != 1 {
		t.Fatalf("dedup hits = %d, want 1", got)
	}

	// New epochs keep flowing after recovery.
	next := mergeAll(t, q, sources, 4, []uint64{1, 2, 3})
	if err := WriteFrame(conn2, Frame{Type: TypePSR, Epoch: 4, Payload: encodeReport(next, nil)}); err != nil {
		t.Fatal(err)
	}
	res4 := <-qn2.Results
	if res4.Err != nil || res4.Sum != 6 {
		t.Fatalf("epoch 4 after recovery: %+v", res4)
	}

	conn2.Close()
	qn2.Close()
	if err := <-run2; err != nil {
		t.Fatal(err)
	}
}

// TestQuerierReplayDuplicateCommit hand-writes a journal containing the same
// commit twice (the torn-checkpoint shape: snapshot written, journal reset
// lost) and checks replay applies it once. Live, a burst of fresh epochs is
// each emitted and acked exactly once, and a re-sent committed epoch —
// replayed from the journal or committed live — is re-acked from the
// remembered ack and never emitted twice.
func TestQuerierReplayDuplicateCommit(t *testing.T) {
	q, sources, err := core.Setup(2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, _, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := durable.Record{Type: recQuerierCommit, Payload: encodeQuerierCommit(5, kindFull, 42, nil)}
	if err := store.Journal().Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := store.Journal().Append(rec); err != nil {
		t.Fatal(err)
	}
	store.Close()

	qn, err := NewQuerierNodeConfig(QuerierConfig{ListenAddr: "127.0.0.1:0", StateDir: dir}, q)
	if err != nil {
		t.Fatal(err)
	}
	defer qn.Close()
	h := qn.Health()
	if h.Epochs != 1 || h.Full != 1 {
		t.Fatalf("duplicate commit double-counted: %+v", h)
	}
	if h.Durability.ReplayedFromWAL != 5 || h.Durability.ReplayedRecords != 2 {
		t.Fatalf("durability stats: %+v", h.Durability)
	}

	run := make(chan error, 1)
	go func() { run <- qn.Run() }()
	conn, resync := dialRoot(t, qn.Addr(), 2)
	defer conn.Close()
	if resync != 5 {
		t.Fatalf("resync = %d, want 5", resync)
	}
	send := func(e uint64) {
		t.Helper()
		psr := mergeAll(t, q, sources, prf.Epoch(e), []uint64{e, 2 * e})
		if err := WriteFrame(conn, Frame{Type: TypePSR, Epoch: e, Payload: encodeReport(psr, nil)}); err != nil {
			t.Fatal(err)
		}
	}
	expectAck := func(e, sum uint64) {
		t.Helper()
		f := readResult(t, conn)
		got, ok, err := DecodeResult(f.Payload)
		if err != nil || !ok || f.Epoch != e || got != sum {
			t.Fatalf("ack: epoch %d sum %d ok %v (%v), want epoch %d sum %d", f.Epoch, got, ok, err, e, sum)
		}
	}
	expectNoResult := func() {
		t.Helper()
		select {
		case res := <-qn.Results:
			t.Fatalf("committed epoch re-emitted: %+v", res)
		case <-time.After(100 * time.Millisecond):
		}
	}

	// A burst of fresh epochs written back to back: each is emitted and acked
	// exactly once, in order.
	const first, last = 6, 11
	for e := uint64(first); e <= last; e++ {
		send(e)
	}
	for e := uint64(first); e <= last; e++ {
		res := <-qn.Results
		if res.Err != nil || uint64(res.Epoch) != e || res.Sum != 3*e {
			t.Fatalf("epoch %d: %+v", e, res)
		}
		expectAck(e, 3*e)
	}
	expectNoResult()

	// The replayed commit and one committed live, both re-sent.
	send(5)
	expectAck(5, 42)
	send(first)
	expectAck(first, 3*first)
	expectNoResult()
	if got := qn.DurabilityStats().DedupHits; got != 2 {
		t.Fatalf("dedup hits = %d, want 2", got)
	}

	conn.Close()
	qn.Close()
	if err := <-run; err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedQuerierDedupAndAcks pipelines a burst of epochs into an
// in-memory querier, writing every PSR before reading any ack: each epoch must
// evaluate and ack exactly once, in order, and a re-sent committed epoch must
// re-ack from the stored result without re-emitting.
func TestPipelinedQuerierDedupAndAcks(t *testing.T) {
	q, sources, err := core.Setup(3)
	if err != nil {
		t.Fatal(err)
	}
	qn, err := NewQuerierNodeConfig(QuerierConfig{ListenAddr: "127.0.0.1:0"}, q)
	if err != nil {
		t.Fatal(err)
	}
	defer qn.Close()
	go qn.Run()
	conn, _ := dialRoot(t, qn.Addr(), 3)
	defer conn.Close()

	const epochs = 16
	for e := uint64(1); e <= epochs; e++ {
		psr := mergeAll(t, q, sources, prf.Epoch(e), []uint64{e, 2 * e, 3 * e})
		if err := WriteFrame(conn, Frame{Type: TypePSR, Epoch: e, Payload: encodeReport(psr, nil)}); err != nil {
			t.Fatal(err)
		}
	}
	for e := uint64(1); e <= epochs; e++ {
		select {
		case res := <-qn.Results:
			if res.Err != nil || uint64(res.Epoch) != e || res.Sum != 6*e {
				t.Fatalf("epoch %d: %+v", e, res)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at epoch %d/%d", e, epochs)
		}
		f := readResult(t, conn)
		sum, ok, err := DecodeResult(f.Payload)
		if err != nil || !ok || f.Epoch != e || sum != 6*e {
			t.Fatalf("ack: epoch %d sum %d ok %v (%v), want epoch %d sum %d", f.Epoch, sum, ok, err, e, 6*e)
		}
	}

	// Re-send a committed epoch: re-acked from the stored result, never
	// re-evaluated or re-emitted.
	psr := mergeAll(t, q, sources, 3, []uint64{3, 6, 9})
	if err := WriteFrame(conn, Frame{Type: TypePSR, Epoch: 3, Payload: encodeReport(psr, nil)}); err != nil {
		t.Fatal(err)
	}
	f := readResult(t, conn)
	sum, ok, err := DecodeResult(f.Payload)
	if err != nil || !ok || f.Epoch != 3 || sum != 18 {
		t.Fatalf("re-ack: epoch %d sum %d ok %v (%v), want epoch 3 sum 18", f.Epoch, sum, ok, err)
	}
	select {
	case res := <-qn.Results:
		t.Fatalf("committed epoch re-emitted: %+v", res)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestQuerierMissedBounded drives more failing sources than the MissedCap and
// checks the per-source counters stay capped, shedding oldest-first.
func TestQuerierMissedBounded(t *testing.T) {
	q, _, err := core.Setup(2)
	if err != nil {
		t.Fatal(err)
	}
	qn, err := NewQuerierNodeConfig(QuerierConfig{ListenAddr: "127.0.0.1:0", MissedCap: 2}, q)
	if err != nil {
		t.Fatal(err)
	}
	defer qn.Close()
	for i := 0; i < 5; i++ {
		qn.record(EpochResult{Epoch: prf.Epoch(i + 1), Partial: true, Failed: []int{i}})
	}
	h := qn.Health()
	if len(h.Missed) != 2 {
		t.Fatalf("missed map holds %d entries, want 2", len(h.Missed))
	}
	if h.Missed[3] != 1 || h.Missed[4] != 1 {
		t.Fatalf("missed map kept the wrong entries: %v", h.Missed)
	}
}

// TestAggregatorDurableRecovery crashes an aggregator mid-epoch and restarts
// it from its state directory: the flush frontier survives (children resync
// past settled epochs, re-sends of flushed epochs stay suppressed) and the
// contribution accepted before the crash is recovered, so the epoch completes
// with no child's subtree falsely reported failed.
func TestAggregatorDurableRecovery(t *testing.T) {
	q, sources, err := core.Setup(2)
	if err != nil {
		t.Fatal(err)
	}
	field := q.Params().Field()
	dir := t.TempDir()

	parentLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer parentLn.Close()

	aggLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	aggAddr := aggLn.Addr().String()
	aggLn.Close() // we only needed a free port that stays stable across restarts

	build := func() (*AggregatorNode, net.Conn, net.Conn, net.Conn, uint64) {
		type built struct {
			node *AggregatorNode
			err  error
		}
		builtCh := make(chan built, 1)
		go func() {
			node, err := NewAggregatorNode(AggregatorConfig{
				ListenAddr: aggAddr, ParentAddr: parentLn.Addr().String(),
				NumChildren: 2, Timeout: 10 * time.Second,
				StateDir: dir,
			}, field)
			builtCh <- built{node, err}
		}()
		time.Sleep(100 * time.Millisecond) // listener up
		c0, resync := dialChild(t, aggAddr, []int{0})
		c1, _ := dialChild(t, aggAddr, []int{1})
		parent, err := parentLn.Accept()
		if err != nil {
			t.Fatal(err)
		}
		f := readUpstream(t, parent)
		if f.Type != TypeHello {
			t.Fatalf("upstream hello: type %d", f.Type)
		}
		if err := WriteFrame(parent, Frame{Type: TypeHello}); err != nil {
			t.Fatal(err)
		}
		b := <-builtCh
		if b.err != nil {
			t.Fatal(b.err)
		}
		return b.node, c0, c1, parent, resync
	}

	node1, c0, c1, parent1, resync1 := build()
	if resync1 != 0 {
		t.Fatalf("fresh resync = %d, want 0", resync1)
	}
	run1 := make(chan error, 1)
	go func() { run1 <- node1.Run() }()

	// Epoch 1 completes and flushes.
	sendPSR(t, c0, sources[0], 1, 100)
	sendPSR(t, c1, sources[1], 1, 200)
	f := readUpstream(t, parent1)
	if f.Epoch != 1 || f.Type != TypePSR {
		t.Fatalf("flush 1: type %d epoch %d", f.Type, f.Epoch)
	}

	// Epoch 2: only child 0 reports, then the node crashes.
	sendPSR(t, c0, sources[0], 2, 7)
	// The contribution must reach the event loop (and the journal) before the
	// crash; the flush frame for epoch 1 already proves the loop is live, but
	// epoch 2's report races the crash without a small grace.
	time.Sleep(200 * time.Millisecond)
	node1.Crash()
	<-run1 // a crash may surface as an error; either way the loop exits
	c0.Close()
	c1.Close()
	parent1.Close()

	// Restart from the same directory; children redial and resync past the
	// restored flush frontier.
	node2, d0, d1, parent2, resync2 := build()
	if resync2 != 1 {
		t.Fatalf("restored resync = %d, want 1", resync2)
	}
	defer node2.Close()
	defer d0.Close()
	defer d1.Close()
	defer parent2.Close()

	if got := node2.DurabilityStats(); !got.Enabled || got.ReplayedFromWAL != 1 {
		t.Fatalf("restored durability stats: %+v", got)
	}
	run2 := make(chan error, 1)
	go func() { run2 <- node2.Run() }()

	// Child 1 supplies its missing epoch-2 report; child 0's pre-crash
	// contribution was recovered from the journal, so the flush is full.
	sendPSR(t, d1, sources[1], 2, 9)
	f = readUpstream(t, parent2)
	if f.Epoch != 2 || f.Type != TypePSR {
		t.Fatalf("recovered flush: type %d epoch %d", f.Type, f.Epoch)
	}
	psr, failed, err := decodeReport(f.Payload, field, DefaultMaxSources)
	if err != nil || len(failed) != 0 {
		t.Fatalf("recovered flush report: failed %v (%v)", failed, err)
	}
	if res, err := q.Evaluate(2, psr); err != nil || res.Sum != 16 {
		t.Fatalf("recovered epoch 2: %+v (%v)", res, err)
	}

	// A full re-send of settled epoch 1 stays suppressed across the restart;
	// the next upstream frame is epoch 3, not a duplicate of epoch 1.
	sendPSR(t, d0, sources[0], 1, 100)
	sendPSR(t, d1, sources[1], 1, 200)
	sendPSR(t, d0, sources[0], 3, 1)
	sendPSR(t, d1, sources[1], 3, 2)
	f = readUpstream(t, parent2)
	if f.Epoch != 3 {
		t.Fatalf("epoch after re-send = %d, want 3 (epoch 1 must stay suppressed)", f.Epoch)
	}

	node2.Close()
	if err := <-run2; err != nil {
		t.Fatal(err)
	}
}
