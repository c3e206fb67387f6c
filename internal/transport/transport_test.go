package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/prf"
	"github.com/sies/sies/internal/race"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Type: TypePSR, Epoch: 42, Payload: []byte("hello world")}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Epoch != in.Epoch || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: TypeHello, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Payload) != 0 {
		t.Fatalf("payload = %v", out.Payload)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	big := make([]byte, MaxFrameSize+1)
	if err := WriteFrame(&buf, Frame{Type: TypePSR, Payload: big}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
	// A forged length header must also be rejected on read.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, TypePSR})
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("forged length: %v", err)
	}
}

func TestFrameShortHeader(t *testing.T) {
	buf := bytes.NewBuffer([]byte{0, 0, 0, 2, 1, 1})
	if _, err := ReadFrame(buf); err == nil {
		t.Fatal("undersized frame accepted")
	}
}

// TestWriteFramePooledZeroAlloc gates the send side: WriteFrame's encode
// buffer comes from a pool.
func TestWriteFramePooledZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inhibits stack allocation; gate runs in the non-race suite")
	}
	payload := bytes.Repeat([]byte{0x5A}, 36+4)
	f := Frame{Type: TypePSR, Epoch: 42, Payload: payload}
	allocs := testing.AllocsPerRun(2000, func() {
		if err := WriteFrame(io.Discard, f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteFrame allocates %.1f/op, want 0", allocs)
	}
}

// TestFrameReaderReuseZeroAlloc gates the receive side: FrameReader recycles
// its buffer across frames.
func TestFrameReaderReuseZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inhibits stack allocation; gate runs in the non-race suite")
	}
	var stream bytes.Buffer
	f := Frame{Type: TypePSR, Epoch: 7, Payload: bytes.Repeat([]byte{1}, 36+4)}
	for i := 0; i < 4000; i++ {
		if err := WriteFrame(&stream, f); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&stream)
	if _, err := fr.Read(); err != nil { // warm the buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := fr.Read(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FrameReader.Read allocates %.1f/op, want 0", allocs)
	}
}

// TestFrameReaderRejectsBeforeAlloc: a hostile length prefix above the
// configured max is rejected without the reader growing its buffer.
func TestFrameReaderRejectsBeforeAlloc(t *testing.T) {
	var stream bytes.Buffer
	if err := WriteFrame(&stream, Frame{Type: TypePSR, Epoch: 1, Payload: bytes.Repeat([]byte{1}, 1<<12)}); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&stream)
	fr.MaxPayload = 64
	if _, err := fr.Read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame accepted: %v", err)
	}
	if cap(fr.buf) > 1024 {
		t.Fatalf("reader allocated %d bytes for a rejected frame", cap(fr.buf))
	}
}

// readCountingConn counts Read calls on an accepted child connection.
type readCountingConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c readCountingConn) Read(b []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(b)
}

type readCountingListener struct {
	net.Listener
	reads *atomic.Int64
}

func (l readCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return readCountingConn{c, l.reads}, nil
}

// TestAggregatorChildReadsBuffered streams K back-to-back frames over one
// child link and counts the aggregator's Read calls on it: a buffered reader
// makes at most one per frame plus the read left blocking for the next one,
// where reading each frame's header and body straight off the socket makes
// two per frame. The second stream puts a failure frame naming 1000 ids,
// several times the child link's read buffer, between the PSR frames: it
// must still arrive whole.
func TestAggregatorChildReadsBuffered(t *testing.T) {
	const k = 64
	_, sources, err := core.Setup(1)
	if err != nil {
		t.Fatal(err)
	}
	psrFrame := func(e uint64) Frame {
		psr, err := sources[0].Encrypt(prf.Epoch(e), e)
		if err != nil {
			t.Fatal(err)
		}
		return Frame{Type: TypePSR, Epoch: e, Payload: encodeReport(psr, nil)}
	}
	wide := make([]int, 1000)
	for i := range wide {
		wide[i] = i
	}
	const failEpoch = k / 2
	t.Run("psr", func(t *testing.T) {
		var frames []Frame
		for e := uint64(1); e <= k; e++ {
			frames = append(frames, psrFrame(e))
		}
		flushed := streamChild(t, []int{0}, frames)
		for e := uint64(1); e <= k; e++ {
			if f := flushed[e]; f.Type != TypePSR {
				t.Fatalf("epoch %d flushed as type %d", e, f.Type)
			}
		}
	})
	t.Run("large-failure", func(t *testing.T) {
		var frames []Frame
		for e := uint64(1); e <= k; e++ {
			if e == failEpoch {
				frames = append(frames, Frame{Type: TypeFailure, Epoch: e, Payload: core.EncodeContributors(wide)})
				continue
			}
			frames = append(frames, psrFrame(e))
		}
		flushed := streamChild(t, wide, frames)
		f := flushed[failEpoch]
		if f.Type != TypeFailure {
			t.Fatalf("epoch %d flushed as type %d, want a failure", failEpoch, f.Type)
		}
		failed, err := core.DecodeContributors(f.Payload)
		if err != nil || len(failed) != len(wide) {
			t.Fatalf("failure flush names %d ids (%v), want %d", len(failed), err, len(wide))
		}
	})
}

// streamChild attaches one child covering covers to a fresh aggregator,
// writes frames to the link in one write, and returns the aggregator's
// upstream flush for each frame's epoch. It fails the test when the
// aggregator makes more than len(frames)+1 Read calls on the link.
func streamChild(t *testing.T, covers []int, frames []Frame) map[uint64]Frame {
	t.Helper()
	q, _, err := core.Setup(1)
	if err != nil {
		t.Fatal(err)
	}
	parentLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer parentLn.Close()
	aggLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	type built struct {
		node *AggregatorNode
		err  error
	}
	builtCh := make(chan built, 1)
	go func() {
		node, err := NewAggregatorNode(AggregatorConfig{
			ListenAddr: aggLn.Addr().String(), ParentAddr: parentLn.Addr().String(), NumChildren: 1,
			Listen: func(string, string) (net.Listener, error) {
				return readCountingListener{aggLn, &reads}, nil
			},
		}, q.Params().Field())
		builtCh <- built{node, err}
	}()
	child, _ := dialChild(t, aggLn.Addr().String(), covers)
	defer child.Close()
	parent, err := parentLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	if hello := readUpstream(t, parent); hello.Type != TypeHello {
		t.Fatalf("expected upstream hello, got type %d", hello.Type)
	}
	if err := WriteFrame(parent, Frame{Type: TypeHello}); err != nil {
		t.Fatal(err)
	}
	b := <-builtCh
	if b.err != nil {
		t.Fatal(b.err)
	}
	defer b.node.Close()

	// Every frame goes out in one write before the reader starts, so they
	// sit back to back in the socket.
	var stream []byte
	for _, f := range frames {
		stream = AppendFrame(stream, f)
	}
	if _, err := child.Write(stream); err != nil {
		t.Fatal(err)
	}
	handshake := reads.Load()
	runDone := make(chan error, 1)
	go func() { runDone <- b.node.Run() }()
	// Merge workers may flush out of epoch order.
	flushed := map[uint64]Frame{}
	for len(flushed) < len(frames) {
		f := readUpstream(t, parent)
		if _, dup := flushed[f.Epoch]; dup || f.Epoch < 1 || f.Epoch > uint64(len(frames)) {
			t.Fatalf("unexpected flush: type %d epoch %d", f.Type, f.Epoch)
		}
		flushed[f.Epoch] = f
	}
	if got := reads.Load() - handshake; got > int64(len(frames))+1 {
		t.Fatalf("%d Read calls for %d frames, want at most %d", got, len(frames), len(frames)+1)
	}
	b.node.Close()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	return flushed
}

// TestDrainFramesZeroAllocPerFrame gates the upstream drains: a link's acks
// share one FrameReader buffer, so draining 64 result frames allocates no
// more than draining one.
func TestDrainFramesZeroAllocPerFrame(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inhibits stack allocation; gate runs in the non-race suite")
	}
	drainAllocs := func(frames int) float64 {
		var stream []byte
		for e := 1; e <= frames; e++ {
			stream = AppendFrame(stream, Frame{Type: TypeResult, Epoch: uint64(e), Payload: EncodeResult(uint64(e), true)})
		}
		r := bytes.NewReader(stream)
		return testing.AllocsPerRun(200, func() {
			r.Reset(stream)
			if err := drainFrames(r); err != io.EOF {
				t.Fatalf("drain ended with %v, want EOF", err)
			}
		})
	}
	one, many := drainAllocs(1), drainAllocs(64)
	if perFrame := (many - one) / 63; perFrame != 0 {
		t.Fatalf("drain allocates %.2f times per frame (%.0f for 1 frame, %.0f for 64), want 0", perFrame, one, many)
	}
}

func TestResultCodec(t *testing.T) {
	sum, ok, err := DecodeResult(EncodeResult(12345, true))
	if err != nil || sum != 12345 || !ok {
		t.Fatalf("decode: %d %v %v", sum, ok, err)
	}
	_, ok, err = DecodeResult(EncodeResult(0, false))
	if err != nil || ok {
		t.Fatalf("decode false: %v %v", ok, err)
	}
	if _, _, err := DecodeResult([]byte{1}); err == nil {
		t.Fatal("short result accepted")
	}
}

// buildCluster wires a two-level tree over loopback TCP:
//
//	querier ← root ← {agg0 ← sources 0,1 ; agg1 ← sources 2,3}
func buildCluster(t *testing.T) (*QuerierNode, []*SourceNode, func()) {
	t.Helper()
	q, sources, err := core.Setup(4)
	if err != nil {
		t.Fatal(err)
	}
	field := q.Params().Field()

	qn, err := NewQuerierNode("127.0.0.1:0", q)
	if err != nil {
		t.Fatal(err)
	}
	go qn.Run()

	// Root aggregator needs a listen address known before children dial it;
	// grab a port by listening momentarily.
	rootAddr := freeAddr(t)
	agg0Addr := freeAddr(t)
	agg1Addr := freeAddr(t)

	var wg sync.WaitGroup
	startAgg := func(listen string, children int, timeout time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parent := qn.Addr()
			if listen != rootAddr {
				parent = rootAddr
			}
			node, err := NewAggregatorNode(AggregatorConfig{
				ListenAddr: listen, ParentAddr: parent,
				NumChildren: children, Timeout: timeout,
			}, field)
			if err != nil {
				t.Errorf("aggregator %s: %v", listen, err)
				return
			}
			if err := node.Run(); err != nil {
				t.Errorf("aggregator %s run: %v", listen, err)
			}
		}()
	}
	// Root first (children dial it), then leaves. Timeouts cascade: the root
	// must wait long enough for its children to time out their own sources.
	startAgg(rootAddr, 2, 1500*time.Millisecond)
	startAgg(agg0Addr, 2, 400*time.Millisecond)
	startAgg(agg1Addr, 2, 400*time.Millisecond)
	time.Sleep(50 * time.Millisecond) // listeners up

	nodes := make([]*SourceNode, 4)
	for i, s := range sources {
		addr := agg0Addr
		if i >= 2 {
			addr = agg1Addr
		}
		n, err := DialSource(addr, s)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	cleanup := func() {
		for _, n := range nodes {
			n.Close()
		}
		wg.Wait()
		qn.Close()
	}
	return qn, nodes, cleanup
}

// freeAddr reserves a loopback port and returns it as host:port.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestClusterEndToEnd(t *testing.T) {
	qn, sources, cleanup := buildCluster(t)
	defer cleanup()

	for epoch := prf.Epoch(1); epoch <= 3; epoch++ {
		var want uint64
		for i, s := range sources {
			v := uint64(i+1) * 10 * uint64(epoch)
			want += v
			if err := s.Report(epoch, v); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case res := <-qn.Results:
			if res.Err != nil {
				t.Fatalf("epoch %d: %v", epoch, res.Err)
			}
			if res.Sum != want || res.Epoch != epoch || res.Contributors != 4 {
				t.Fatalf("epoch %d: %+v, want sum %d", epoch, res, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("epoch %d: no result", epoch)
		}
	}
}

func TestClusterSourceFailure(t *testing.T) {
	qn, sources, cleanup := buildCluster(t)
	defer cleanup()

	// Source 1 dies before epoch 1; the leaf aggregator times it out and
	// reports it failed, the querier evaluates the surviving subset.
	sources[1].Close()
	var want uint64
	for i, s := range sources {
		if i == 1 {
			continue
		}
		v := uint64(100 + i)
		want += v
		if err := s.Report(1, v); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case res := <-qn.Results:
		if res.Err != nil {
			t.Fatalf("subset epoch rejected: %v", res.Err)
		}
		if res.Sum != want || res.Contributors != 3 {
			t.Fatalf("result %+v, want sum %d from 3", res, want)
		}
		if len(res.Failed) != 1 || res.Failed[0] != 1 {
			t.Fatalf("failed list %v", res.Failed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no result after failure")
	}
}

func TestClusterOutOfOrderEpochs(t *testing.T) {
	qn, sources, cleanup := buildCluster(t)
	defer cleanup()

	// Sources report epochs 1 and 2 interleaved; both must evaluate.
	for _, epoch := range []prf.Epoch{1, 2} {
		for i := len(sources) - 1; i >= 0; i-- {
			if err := sources[i].Report(epoch, uint64(10*i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := map[prf.Epoch]uint64{}
	for len(got) < 2 {
		select {
		case res := <-qn.Results:
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			got[res.Epoch] = res.Sum
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d results", len(got))
		}
	}
	if got[1] != 60 || got[2] != 60 {
		t.Fatalf("results %v", got)
	}
}

func TestAggregatorConfigValidation(t *testing.T) {
	q, _, err := core.Setup(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAggregatorNode(AggregatorConfig{NumChildren: 0}, q.Params().Field()); err == nil {
		t.Fatal("zero children accepted")
	}
}

func TestClusterDrainsFinalEpochsOnShutdown(t *testing.T) {
	// Regression: sources report several epochs and immediately disconnect.
	// The tree unwinds, the root departs after sending its last frames, and
	// the querier must still evaluate every epoch it received — including
	// frames buffered behind a failed acknowledgement write.
	qn, sources, cleanup := buildCluster(t)
	defer cleanup()

	const epochs = 5
	for epoch := prf.Epoch(1); epoch <= epochs; epoch++ {
		for i, s := range sources {
			if err := s.Report(epoch, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range sources {
		s.Close()
	}

	got := map[prf.Epoch]uint64{}
	for len(got) < epochs {
		select {
		case res, ok := <-qn.Results:
			if !ok {
				t.Fatalf("results closed after %d/%d epochs", len(got), epochs)
			}
			if res.Err != nil {
				t.Fatalf("epoch %d rejected: %v", res.Epoch, res.Err)
			}
			got[res.Epoch] = res.Sum
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out with %d/%d epochs", len(got), epochs)
		}
	}
	for epoch := prf.Epoch(1); epoch <= epochs; epoch++ {
		if got[epoch] != 10 {
			t.Fatalf("epoch %d: SUM %d, want 10", epoch, got[epoch])
		}
	}
}
