package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/sies/sies/internal/core"
	"github.com/sies/sies/internal/transport"
)

// tree is one live deployment: querier ← aggregator ← children, all on
// loopback. Every node is configured as cmd/siesnode configures it: only the
// deployment settings (addresses, NumChildren) and the querier's prefetch
// are set, every other field keeps its zero default.
type tree struct {
	w       workload
	q       *core.Querier
	sources []*core.Source
	qn      *transport.QuerierNode
	agg     *transport.AggregatorNode
	srcs    []*transport.SourceNode // star: the sources under test
	links   []net.Conn              // wide: the generator's two subtree links

	qDone   chan error
	aggDone chan error // nil until the aggregator runs
}

// subtrees is how many child aggregators the generator plays in the wide
// workload; each covers sources/subtrees ids.
const subtrees = 2

// formTree provisions keys and links a fresh tree, returning it with its
// set-up time: from core.Setup until every child hello and the aggregator's
// upstream hello are acknowledged. A non-nil keys reuses that tree's key
// material instead of provisioning. With a probe the nodes' Dial and Listen
// hooks are wrapped so the probe sees every frame.
func formTree(w workload, pr *probe, keys *tree) (*tree, time.Duration, error) {
	t := &tree{w: w, qDone: make(chan error, 1)}
	start := time.Now()
	q, sources, err := keysFor(w, keys)
	if err != nil {
		return nil, 0, err
	}
	t.q, t.sources = q, sources
	qcfg := transport.QuerierConfig{ListenAddr: "127.0.0.1:0", Schedule: core.ScheduleConfig{Prefetch: true}}
	if t.qn, err = transport.NewQuerierNodeConfig(qcfg, q); err != nil {
		return nil, 0, err
	}
	go func() { t.qDone <- t.qn.Run() }()

	// The aggregator's listener is bound before any child dials, so no dial
	// races the listen and no retry sleep lands in the set-up time.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, 0, err
	}
	children := w.sources
	if w.wide {
		children = subtrees
	}
	acfg := transport.AggregatorConfig{
		ListenAddr:  ln.Addr().String(),
		ParentAddr:  t.qn.Addr(),
		NumChildren: children,
		Listen: func(string, string) (net.Listener, error) {
			if pr != nil {
				return pr.listener(ln), nil
			}
			return ln, nil
		},
	}
	if pr != nil {
		acfg.Dial = pr.dialer(roleUpstream)
	}
	type built struct {
		agg *transport.AggregatorNode
		err error
	}
	ready := make(chan built, 1)
	go func() {
		agg, err := transport.NewAggregatorNode(acfg, q.Params().Field())
		ready <- built{agg, err}
	}()

	var linkErr error
	if w.wide {
		linkErr = t.linkSubtrees(ln.Addr().String(), pr)
	} else {
		linkErr = t.linkSources(ln.Addr().String(), pr)
	}
	if linkErr != nil {
		// Unblock a constructor still waiting for children.
		ln.Close()
	}
	b := <-ready
	elapsed := time.Since(start)
	t.agg = b.agg
	if err := errors.Join(linkErr, b.err); err != nil {
		t.close()
		return nil, 0, err
	}
	t.aggDone = make(chan error, 1)
	go func() { t.aggDone <- t.agg.Run() }()
	return t, elapsed, nil
}

func keysFor(w workload, keys *tree) (*core.Querier, []*core.Source, error) {
	if keys != nil {
		return keys.q, keys.sources, nil
	}
	return core.Setup(w.sources)
}

// linkSources dials one SourceNode per source, in id order.
func (t *tree) linkSources(addr string, pr *probe) error {
	cfg := transport.SourceConfig{ParentAddr: addr}
	if pr != nil {
		cfg.Dial = pr.dialer(roleChild)
	}
	t.srcs = make([]*transport.SourceNode, 0, len(t.sources))
	for _, s := range t.sources {
		node, err := transport.DialSourceWith(cfg, s)
		if err != nil {
			return err
		}
		t.srcs = append(t.srcs, node)
	}
	return nil
}

// linkSubtrees opens the generator's subtree links: each says hello for its
// half of the ids and waits for the acknowledgement, as a child aggregator
// does.
func (t *tree) linkSubtrees(addr string, pr *probe) error {
	per := len(t.sources) / subtrees
	for c := 0; c < subtrees; c++ {
		var conn net.Conn
		var err error
		if pr != nil {
			conn, err = pr.dialer(roleChild)("tcp", addr)
		} else {
			conn, err = net.Dial("tcp", addr)
		}
		if err != nil {
			return err
		}
		t.links = append(t.links, conn)
		ids := make([]int, per)
		for i := range ids {
			ids[i] = c*per + i
		}
		if err := transport.WriteFrame(conn, transport.Frame{Type: transport.TypeHello, Payload: core.EncodeContributors(ids)}); err != nil {
			return err
		}
		ack, err := transport.ReadFrame(conn)
		if err != nil {
			return fmt.Errorf("subtree %d hello: %w", c, err)
		}
		if ack.Type != transport.TypeHello {
			return fmt.Errorf("subtree %d hello: answered with frame type %d", c, ack.Type)
		}
	}
	return nil
}

// close tears the tree down and waits for every node's Run to return.
func (t *tree) close() error {
	t.closeChildren()
	return t.wait()
}

// closeChildren closes the sources or subtree links and the aggregator. The
// aggregator's Run returns only at its next exit tick, a quarter of its 2 s
// timeout later.
func (t *tree) closeChildren() {
	for _, s := range t.srcs {
		s.Close()
	}
	for _, c := range t.links {
		c.Close()
	}
	if t.agg != nil {
		t.agg.Close()
	}
}

// wait waits for the aggregator's Run to return after closeChildren, then
// closes the querier and waits for its Run.
func (t *tree) wait() error {
	var errs []error
	if t.aggDone != nil {
		errs = append(errs, <-t.aggDone)
	}
	if t.qn != nil {
		t.qn.Close()
		// Results is closed when Run returns; drain what nobody collected.
		for range t.qn.Results {
		}
		errs = append(errs, <-t.qDone)
	}
	return errors.Join(errs...)
}
