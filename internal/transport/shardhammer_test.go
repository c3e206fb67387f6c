package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/race"
)

// hammerDial is dialChild for use off the test goroutine: errors are returned,
// not fataled. A non-zero fence declares epochs already handed to a previous
// parent.
func hammerDial(addr string, covers []int, fence uint64) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := WriteFrame(conn, Frame{Type: TypeHello, Epoch: fence, Payload: core.EncodeContributors(covers)}); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ack, err := ReadFrame(conn)
	if err != nil || ack.Type != TypeHello {
		conn.Close()
		return nil, fmt.Errorf("hello-ack: %+v (%v)", ack, err)
	}
	conn.SetReadDeadline(time.Time{})
	return conn, nil
}

func hammerReport(conn net.Conn, psr core.PSR, epoch prf.Epoch) error {
	return WriteFrame(conn, Frame{Type: TypePSR, Epoch: uint64(epoch), Payload: encodeReport(psr, nil)})
}

// TestAggregatorShardedIngestHammer drives the sharded epoch table through
// every membership transition at once: ten children stream interleaved epochs
// full-tilt while some of them drop and redial mid-run (concurrent hello), one
// leaves gracefully (concurrent leave + sweep + drain), and a re-homing child
// steals two coverage slots with a fence (concurrent steal). The fake parent
// cryptographically verifies every flush: a dropped report, a double-merged
// report, or a mis-attributed contributor set makes EvaluateSubset fail with
// overwhelming probability, and the expected-value check catches the rest.
// Run under -race this doubles as the lock-hierarchy soak for the merge plane.
func TestAggregatorShardedIngestHammer(t *testing.T) {
	const (
		nSources  = 10
		nChildren = 10  // child i covers source {i}
		epochs    = 120 // every one must flush exactly once
		tLeave    = 60  // child 9 sends TypeLeave after this epoch
		tSteal    = 90  // children 0,1 stop; a re-homer takes their coverage
	)
	val := func(s int, e prf.Epoch) uint64 { return uint64(s+1)*1000 + uint64(e) }

	q, sources, err := core.Setup(nSources)
	if err != nil {
		t.Fatal(err)
	}
	field := q.Params().Field()

	parentLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer parentLn.Close()
	aggAddr := freeAddr(t)

	type built struct {
		node *AggregatorNode
		err  error
	}
	builtCh := make(chan built, 1)
	go func() {
		node, err := NewAggregatorNode(AggregatorConfig{
			ListenAddr: aggAddr, ParentAddr: parentLn.Addr().String(),
			NumChildren: nChildren, Timeout: 1500 * time.Millisecond,
			AcceptNew: true,
		}, field)
		builtCh <- built{node, err}
	}()

	time.Sleep(50 * time.Millisecond) // listener up
	conns := make([]net.Conn, nChildren)
	for i := range conns {
		conns[i], _ = dialChild(t, aggAddr, []int{i})
	}

	parent, err := parentLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	if f := readUpstream(t, parent); f.Type != TypeHello {
		t.Fatalf("expected upstream hello, got type %d", f.Type)
	}
	if err := WriteFrame(parent, Frame{Type: TypeHello}); err != nil {
		t.Fatal(err)
	}

	b := <-builtCh
	if b.err != nil {
		t.Fatal(b.err)
	}
	node := b.node
	runDone := make(chan error, 1)
	go func() { runDone <- node.Run() }()

	errCh := make(chan error, nChildren+2)
	var sendWG sync.WaitGroup
	var stolen sync.WaitGroup // children 0 and 1 finished their half
	stolen.Add(2)

	for i := 0; i < nChildren; i++ {
		i := i
		sendWG.Add(1)
		go func() {
			defer sendWG.Done()
			if i < 2 {
				defer stolen.Done()
			}
			conn := conns[i]
			defer func() { conn.Close() }()
			last := epochs
			switch {
			case i < 2:
				last = tSteal
			case i == nChildren-1:
				last = tLeave
			}
			for e := prf.Epoch(1); int(e) <= last; e++ {
				psr, err := sources[i].Encrypt(e, val(i, e))
				if err != nil {
					errCh <- fmt.Errorf("child %d epoch %d: %w", i, e, err)
					return
				}
				if err := hammerReport(conn, psr, e); err != nil {
					errCh <- fmt.Errorf("child %d epoch %d: %w", i, e, err)
					return
				}
				// Children 0, 3, 6, 9 drop and immediately redial mid-run so
				// attach races live ingest from the other children.
				if i%3 == 0 && (int(e) == 40 || int(e) == 80) && int(e) < last {
					conn.Close()
					nc, err := hammerDial(aggAddr, []int{i}, 0)
					if err != nil {
						errCh <- fmt.Errorf("child %d redial: %w", i, err)
						return
					}
					conn = nc
				}
				time.Sleep(time.Millisecond) // keep the cohort loosely in step
			}
			if i == nChildren-1 {
				if err := WriteFrame(conn, Frame{Type: TypeLeave, Payload: core.EncodeContributors([]int{i})}); err != nil {
					errCh <- fmt.Errorf("child %d leave: %w", i, err)
				}
			}
		}()
	}

	// The re-homer: once children 0 and 1 stop, it dials with their combined
	// coverage and a fence at the takeover epoch, sending merged PSRs for both
	// sources — the steal path, concurrent with the rest of the cohort.
	sendWG.Add(1)
	go func() {
		defer sendWG.Done()
		stolen.Wait()
		merger := core.NewAggregator(field)
		conn, err := hammerDial(aggAddr, []int{0, 1}, tSteal)
		if err != nil {
			errCh <- fmt.Errorf("re-homer dial: %w", err)
			return
		}
		defer conn.Close()
		for e := prf.Epoch(tSteal + 1); int(e) <= epochs; e++ {
			p0, err0 := sources[0].Encrypt(e, val(0, e))
			p1, err1 := sources[1].Encrypt(e, val(1, e))
			if err0 != nil || err1 != nil {
				errCh <- fmt.Errorf("re-homer epoch %d: %v %v", e, err0, err1)
				return
			}
			if err := hammerReport(conn, merger.Merge(p0, p1), e); err != nil {
				errCh <- fmt.Errorf("re-homer epoch %d: %w", e, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Verify every flush at the fake parent. The candidate contributor set is
	// derived from the frame's failed list minus every graceful departure seen
	// so far on the wire (the drain barrier guarantees flushes carrying a
	// leaver's data are written before the leave relay). Verification is
	// cryptographic: a wrong set — dropped report, double merge, stale leaver
	// data — fails EvaluateSubset.
	seen := make(map[prf.Epoch]bool, epochs)
	departed := make(map[int]bool)
	deadline := time.Now().Add(60 * time.Second)
	for len(seen) < epochs {
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d/%d epochs flushed", len(seen), epochs)
		}
		parent.SetReadDeadline(time.Now().Add(10 * time.Second))
		f, err := ReadFrame(parent)
		if err != nil {
			t.Fatalf("reading upstream with %d/%d epochs flushed: %v", len(seen), epochs, err)
		}
		switch f.Type {
		case TypeMember, TypeHello:
			continue
		case TypeLeave:
			ids, err := core.DecodeContributorsBounded(f.Payload, nSources)
			if err != nil {
				t.Fatalf("leave relay: %v", err)
			}
			for _, id := range ids {
				departed[id] = true
			}
		case TypeFailure:
			e := prf.Epoch(f.Epoch)
			if seen[e] {
				t.Fatalf("epoch %d flushed twice (failure frame)", e)
			}
			seen[e] = true
		case TypePSR:
			e := prf.Epoch(f.Epoch)
			if seen[e] {
				t.Fatalf("epoch %d flushed twice", e)
			}
			seen[e] = true
			psr, failed, err := decodeReport(f.Payload, field, DefaultMaxSources)
			if err != nil {
				t.Fatalf("epoch %d: %v", e, err)
			}
			cand := make([]int, 0, nSources)
			for _, id := range core.Subtract(nSources, failed) {
				if !departed[id] {
					cand = append(cand, id)
				}
			}
			res, err := q.EvaluateSubset(e, psr, cand)
			if err != nil {
				t.Fatalf("epoch %d: contributor set %v (failed %v, departed %v) does not verify: %v",
					e, cand, failed, departed, err)
			}
			var want uint64
			for _, s := range cand {
				want += val(s, e)
			}
			if res.Sum != want {
				t.Fatalf("epoch %d: SUM %d over %v, want %d", e, res.Sum, cand, want)
			}
		default:
			t.Fatalf("unexpected upstream frame type %d", f.Type)
		}
	}

	sendWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	node.Close()
	if err := awaitRun(t, runDone, "aggregator"); err != nil {
		t.Fatalf("aggregator run: %v", err)
	}
}

// TestFlushScratchZeroAlloc pins the churn-path scratch reuse: extracting the
// contributor set, canonicalising it and computing the failed complement must
// not allocate per epoch once the mergeScratch buffers are warm. Sits beside
// the other hotpath gates; skipped under -race like them.
func TestFlushScratchZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inhibits stack allocation; gate runs in the non-race suite")
	}
	covers := make([]int, 64)
	for i := range covers {
		covers[i] = i
	}
	reported := []int{63, 3, 17, 40, 3} // unsorted with a duplicate: forces the sort+dedup path
	w := &mergeScratch{
		contrib: make([]int, 0, 128),
		minus:   make([]int, 0, 128),
		failed:  make([]int, 0, 128),
	}
	if n := testing.AllocsPerRun(2000, func() {
		w.contrib = append(w.contrib[:0], reported...)
		w.contrib = normalizeIDsInPlace(w.contrib)
		w.failed = idsMinusInto(w.failed[:0], covers, w.contrib)
	}); n != 0 {
		t.Fatalf("flush scratch path allocates %v per epoch, want 0", n)
	}
}
