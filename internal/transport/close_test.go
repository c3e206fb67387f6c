package transport

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/sies/sies/internal/core"
)

// TestNodeCloseIdempotent closes every node type twice — sequentially and
// concurrently — and requires the second close to be a quiet no-op. Shutdown
// paths overlap in practice (a signal handler racing a deferred Close, a
// supervisor and a test harness both cleaning up), and a double close must
// not panic, deadlock or surface a spurious error.
func TestNodeCloseIdempotent(t *testing.T) {
	q, sources, err := core.Setup(2)
	if err != nil {
		t.Fatal(err)
	}
	field := q.Params().Field()

	qn, err := NewQuerierNodeConfig(QuerierConfig{
		ListenAddr: "127.0.0.1:0", StateDir: t.TempDir(),
	}, q)
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- qn.Run() }()

	aggLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	aggAddr := aggLn.Addr().String()
	aggLn.Close()
	type built struct {
		node *AggregatorNode
		err  error
	}
	builtCh := make(chan built, 1)
	go func() {
		node, err := NewAggregatorNode(AggregatorConfig{
			ListenAddr: aggAddr, ParentAddr: qn.Addr(),
			NumChildren: 2, Timeout: 250 * time.Millisecond,
			StateDir: t.TempDir(),
		}, field)
		builtCh <- built{node, err}
	}()
	time.Sleep(100 * time.Millisecond)

	srcNodes := make([]*SourceNode, len(sources))
	for i, s := range sources {
		n, err := DialSource(aggAddr, s)
		if err != nil {
			t.Fatal(err)
		}
		srcNodes[i] = n
	}
	b := <-builtCh
	if b.err != nil {
		t.Fatal(b.err)
	}
	aggDone := make(chan error, 1)
	go func() { aggDone <- b.node.Run() }()

	// One epoch end to end, so every node has live connections to tear down.
	for i, n := range srcNodes {
		if err := n.Report(1, uint64(10*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	res := <-qn.Results
	if res.Err != nil || res.Sum != 30 {
		t.Fatalf("epoch 1: %+v", res)
	}

	closers := map[string]func() error{
		"source":     srcNodes[0].Close,
		"source-2":   srcNodes[1].Close,
		"aggregator": b.node.Close,
		"querier":    qn.Close,
	}
	for name, close := range closers {
		if err := close(); err != nil {
			t.Fatalf("%s first Close: %v", name, err)
		}
		if err := close(); err != nil {
			t.Fatalf("%s second Close: %v", name, err)
		}
		// And a concurrent burst: all calls return, none panics.
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := close(); err != nil {
					t.Errorf("%s concurrent Close: %v", name, err)
				}
			}()
		}
		wg.Wait()
	}

	select {
	case err := <-aggDone:
		if err != nil {
			t.Fatalf("aggregator Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("aggregator Run did not exit after Close")
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("querier Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("querier Run did not exit after Close")
	}
}

// runExitBudget bounds a test's wait for a node's Run to return after Close
// or Crash. A healthy node returns within one exit tick plus its drain.
const runExitBudget = 30 * time.Second

// awaitRun waits for a node's Run to return and hands back its error. A Run
// still going after runExitBudget is a shutdown hang: the test fails at once
// with every goroutine's stack, which shows where the drain is blocked,
// instead of running into the package timeout.
func awaitRun(t testing.TB, run <-chan error, node string) error {
	t.Helper()
	select {
	case err := <-run:
		return err
	case <-time.After(runExitBudget):
		buf := make([]byte, 8<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%s: Run did not return within %v of shutdown; goroutines:\n%s", node, runExitBudget, buf)
		return nil
	}
}

// gatedListener runs a hook inside Close before closing the real listener,
// so a test can act in the window where a closing node has already swapped
// out its connection set but still accepts.
type gatedListener struct {
	net.Listener
	once        sync.Once
	beforeClose func()
}

func (l *gatedListener) Close() error {
	l.once.Do(l.beforeClose)
	return l.Listener.Close()
}

// TestAggregatorRefusesAcceptDuringClose pins the shutdown race behind the
// restart-soak hang. A child that redials while Crash's closeAll runs —
// after the connection set was swapped out, before the listener closed —
// must be refused. Attached, its reader blocks on a connection nothing ever
// closes, and Run never returns from its final drain.
func TestAggregatorRefusesAcceptDuringClose(t *testing.T) {
	q, _, err := core.Setup(1)
	if err != nil {
		t.Fatal(err)
	}
	parentLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer parentLn.Close()
	aggAddr := freeAddr(t)

	var node *AggregatorNode
	var late net.Conn // left open: closing it would free the stuck reader
	defer func() {
		if late != nil {
			late.Close()
		}
	}()
	ln := &gatedListener{beforeClose: func() {
		// The returning child redials inside the window with its old
		// coverage, so an attach would re-open its slot.
		conn, err := net.Dial("tcp", aggAddr)
		if err != nil {
			return
		}
		late = conn
		if WriteFrame(conn, Frame{Type: TypeHello, Payload: core.EncodeContributors([]int{0})}) != nil {
			return
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := ReadFrame(conn); err != nil {
			return // refused: the node closed the connection
		}
		// Accepted: wait until Run has attached it, so the reader exists.
		deadline := time.Now().Add(5 * time.Second)
		for node.obs.childReconnects.Value() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}}

	type built struct {
		node *AggregatorNode
		err  error
	}
	builtCh := make(chan built, 1)
	go func() {
		n, err := NewAggregatorNode(AggregatorConfig{
			ListenAddr: aggAddr, ParentAddr: parentLn.Addr().String(), NumChildren: 1,
			// A long exit tick keeps Run serving events between Crash and
			// its exit check, so the late hello reaches attach.
			Timeout: 4 * time.Second,
			Listen: func(network, addr string) (net.Listener, error) {
				inner, err := net.Listen(network, addr)
				if err != nil {
					return nil, err
				}
				ln.Listener = inner
				return ln, nil
			},
		}, q.Params().Field())
		builtCh <- built{n, err}
	}()
	time.Sleep(50 * time.Millisecond)
	child, _ := dialChild(t, aggAddr, []int{0})
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
	node = b.node
	run := make(chan error, 1)
	go func() { run <- node.Run() }()

	node.Crash()
	awaitRun(t, run, "aggregator")
}
