package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sies/sies/internal/transport"
)

// probe is the traced pass's instrumentation. Conn wrappers installed on the
// nodes' Dial and Listen hooks stamp per-epoch boundary times and count every
// frame once, on the side that sends it (result acks, which the querier
// sends, on the aggregator side that reads them). The per-epoch tables are
// sized to the run before it starts, so recording allocates nothing.
type probe struct {
	base     time.Time
	lastRead []atomic.Int64 // aggregator: the epoch's last child report fully read
	upWrite  []atomic.Int64 // aggregator: the epoch's report written upstream

	frames, bytes   atomic.Int64 // every edge
	writes, writeNs atomic.Int64 // conn.Write calls on source/subtree links
}

func newProbe(base time.Time, lastRead, upWrite []atomic.Int64) *probe {
	return &probe{base: base, lastRead: lastRead, upWrite: upWrite}
}

// now is the probe clock: monotonic nanoseconds since the run's base.
func (p *probe) now() int64 { return int64(time.Since(p.base)) }

type connRole uint8

const (
	roleChild    connRole = iota // source or subtree link: times and counts writes
	roleIngress                  // accepted by the aggregator: stamps the last child read
	roleUpstream                 // aggregator → querier: stamps upstream writes, counts acks
)

func (p *probe) dialer(role connRole) func(network, addr string) (net.Conn, error) {
	return func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return &wireConn{Conn: c, p: p, role: role}, nil
	}
}

func (p *probe) listener(ln net.Listener) net.Listener { return wireListener{ln, p} }

type wireListener struct {
	net.Listener
	p *probe
}

func (l wireListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &wireConn{Conn: c, p: l.p, role: roleIngress}, nil
}

// wireConn scans the frames crossing one end of an edge.
type wireConn struct {
	net.Conn
	p    *probe
	role connRole
	rd   frameScanner // only the conn's single reader goroutine touches it
	wmu  sync.Mutex   // merge workers may write upstream concurrently
	wr   frameScanner
}

func (c *wireConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 && c.role != roleChild {
		at := c.p.now()
		c.rd.feed(b[:n], func(typ byte, epoch uint64, size int) {
			switch {
			case c.role == roleIngress && isReport(typ):
				stampMax(c.p.lastRead, epoch, at)
			case c.role == roleUpstream:
				c.p.count(size)
			}
		})
	}
	return n, err
}

func (c *wireConn) Write(b []byte) (int, error) {
	t0 := c.p.now()
	n, err := c.Conn.Write(b)
	at := c.p.now()
	if c.role == roleChild {
		c.p.writes.Add(1)
		c.p.writeNs.Add(at - t0)
	}
	c.wmu.Lock()
	c.wr.feed(b[:n], func(typ byte, epoch uint64, size int) {
		c.p.count(size)
		if c.role == roleUpstream && isReport(typ) && epoch < uint64(len(c.p.upWrite)) {
			c.p.upWrite[epoch].CompareAndSwap(0, at)
		}
	})
	c.wmu.Unlock()
	return n, err
}

func (p *probe) count(size int) {
	p.frames.Add(1)
	p.bytes.Add(int64(size))
}

func isReport(typ byte) bool { return typ == transport.TypePSR || typ == transport.TypeFailure }

// stampMax raises tab[epoch] to at.
func stampMax(tab []atomic.Int64, epoch uint64, at int64) {
	if epoch >= uint64(len(tab)) {
		return
	}
	s := &tab[epoch]
	for {
		old := s.Load()
		if at <= old || s.CompareAndSwap(old, at) {
			return
		}
	}
}

// frameHeader is the wire frame header: length(u32) type(u8) epoch(u64).
// checkWireLayout holds it to transport.AppendFrame.
const frameHeader = 13

// checkWireLayout scans a frame from transport.AppendFrame and fails unless
// the scanner reads back its type, epoch and size, so a change to the wire
// format stops a traced run instead of skewing its counts.
func checkWireLayout() error {
	f := transport.Frame{Type: transport.TypePSR, Epoch: 0x0102030405060708, Payload: []byte{0xa5, 0x5a, 0xff}}
	b := transport.AppendFrame(nil, f)
	frames, wrong := 0, false
	emit := func(typ byte, epoch uint64, size int) {
		frames++
		wrong = wrong || typ != f.Type || epoch != f.Epoch || size != len(b)
	}
	var s frameScanner
	s.feed(b[:5], emit) // split inside the header
	s.feed(b[5:], emit)
	s.feed(b, emit)
	if frames != 2 || wrong {
		return fmt.Errorf("the frame scanner does not match transport.AppendFrame's layout (%d bytes)", len(b))
	}
	return nil
}

// frameScanner finds frame boundaries in a byte stream fed in arbitrary
// pieces, reporting each frame once its last byte has been fed.
type frameScanner struct {
	hdr  [frameHeader]byte
	have int // bytes of the current frame seen so far
	size int // the current frame's total size, once its length is known
}

func (s *frameScanner) feed(b []byte, emit func(typ byte, epoch uint64, size int)) {
	for len(b) > 0 {
		if s.have < frameHeader {
			k := copy(s.hdr[s.have:], b)
			s.have += k
			b = b[k:]
			if s.have < frameHeader {
				return
			}
			// A length below the header's own is corrupt; the reader rejects
			// such a frame, so count it as a bare header.
			s.size = max(4+int(binary.BigEndian.Uint32(s.hdr[:4])), frameHeader)
		}
		k := min(s.size-s.have, len(b))
		s.have += k
		b = b[k:]
		if s.have == s.size {
			emit(s.hdr[4], binary.BigEndian.Uint64(s.hdr[5:]), s.size)
			s.have = 0
		}
	}
}
