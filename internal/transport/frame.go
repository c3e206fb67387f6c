// Package transport runs a SIES deployment over real TCP connections: each
// source, aggregator and querier is a separate node exchanging
// length-prefixed frames. The in-memory simulator (internal/network) is the
// tool for experiments; this package is the deployment path — cmd/siesnode
// wraps it into a runnable process per role.
//
// Wire protocol (all integers big-endian):
//
//	frame  := length(u32) type(u8) epoch(u64) payload
//	types  := hello | psr | failure | result | leave | member
//
// A child (source or aggregator) opens one TCP connection to its parent and
// sends a hello identifying the set of source ids its subtree covers; the
// hello's epoch field carries the child's *fence* — the highest epoch it may
// already have handed to a different parent (zero for a child that never
// re-parented). The parent answers with a hello-ack (a hello frame with an
// empty payload) whose epoch field carries the parent's resync point — the
// highest epoch it has already settled — so a reconnecting child can skip
// reports the parent would discard anyway. Every epoch the child sends one
// psr frame (the 32-byte PSR) plus, when sources under it failed, a failure
// frame listing the missing ids. The root aggregator's parent is the
// querier, which evaluates and replies with a result frame on the connection
// the final PSR arrived on. A gracefully draining child sends a leave frame
// before closing; member frames carry join/orphan/re-home/leave events up
// the tree so the querier can reconcile its live contributor view.
//
// Fault model: a child whose parent link drops redials with exponential
// backoff + jitter, repeats the hello exchange and resumes at the current
// epoch; the parent matches the returning child to its slot by the coverage
// set in the hello and drops re-sent reports for epochs already forwarded.
// A child whose parent stays dead past the per-address retry budget
// escalates to the next address of its ranked parent list; the fence carried
// by its next hello keeps re-homed epochs single-path (DESIGN.md §15).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Frame types.
const (
	TypeHello   byte = 1 // payload: contributor-id list (subtree coverage); epoch: fence
	TypePSR     byte = 2 // payload: 32-byte PSR
	TypeFailure byte = 3 // payload: contributor-id list of failed sources
	TypeResult  byte = 4 // payload: result(u64) ‖ ok(u8)
	TypeLeave   byte = 5 // payload: contributor-id list departing gracefully
	TypeMember  byte = 6 // payload: membership event (see membership.go)
)

// MaxFrameSize bounds a frame's payload; large enough for a failure report
// covering every source of the biggest supported deployment chunk.
const MaxFrameSize = 1 << 20

// Frame is one wire message.
type Frame struct {
	Type    byte
	Epoch   uint64
	Payload []byte
}

// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
var ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")

// AppendFrame appends f's wire encoding to dst and returns the extended
// slice. It is the allocation-free encoding primitive behind WriteFrame.
func AppendFrame(dst []byte, f Frame) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+8+len(f.Payload)))
	dst = append(dst, f.Type)
	dst = binary.BigEndian.AppendUint64(dst, f.Epoch)
	return append(dst, f.Payload...)
}

// frameBufPool recycles encode buffers through encode→write→release so the
// steady-state WriteFrame path allocates nothing.
var frameBufPool = sync.Pool{New: func() any { return &frameBuf{} }}

type frameBuf struct{ b []byte }

// WriteFrame serialises f to w in a single Write call, so a frame either
// reaches the transport whole or not at all — fault injectors that swallow a
// write drop a clean frame rather than desynchronising the stream. The
// encode buffer comes from a pool and is released after the write.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	fb := frameBufPool.Get().(*frameBuf)
	fb.b = AppendFrame(fb.b[:0], f)
	_, err := w.Write(fb.b)
	frameBufPool.Put(fb)
	if err != nil {
		return fmt.Errorf("transport: writing frame: %w", err)
	}
	return nil
}

// ReadFrame parses the next frame from r, allocating a fresh payload the
// caller owns. Loop-heavy readers should use FrameReader, which recycles one
// buffer across frames.
func ReadFrame(r io.Reader) (Frame, error) {
	f, _, err := ReadFrameInto(r, nil, MaxFrameSize)
	return f, err
}

// ReadFrameInto parses the next frame from r into buf, growing it only when
// the frame outsizes its capacity, and returns the (possibly grown) buffer
// for the next call. The frame's Payload aliases the returned buffer and is
// valid until the buffer's next use. Frames whose payload exceeds maxPayload
// are rejected from the length prefix alone, before any allocation.
func ReadFrameInto(r io.Reader, buf []byte, maxPayload int) (Frame, []byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 0, 512)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, buf, err // io.EOF propagates cleanly for closed peers
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < 9 {
		return Frame{}, buf, errors.New("transport: frame shorter than its header")
	}
	if maxPayload < 0 || maxPayload > MaxFrameSize {
		maxPayload = MaxFrameSize
	}
	if n > uint32(maxPayload)+9 {
		return Frame{}, buf, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, buf, fmt.Errorf("transport: reading frame body: %w", err)
	}
	return Frame{
		Type:    body[0],
		Epoch:   binary.BigEndian.Uint64(body[1:9]),
		Payload: body[9:n],
	}, buf, nil
}

// FrameReader reads frames from one stream, recycling a single payload
// buffer across calls — the fix for ReadFrame's per-frame allocation on hot
// receive loops. Returned frames alias the internal buffer: a frame is valid
// only until the next Read. MaxPayload (default MaxFrameSize) rejects
// oversized frames before any allocation.
type FrameReader struct {
	r   io.Reader
	buf []byte

	// MaxPayload caps accepted payload sizes; 0 means MaxFrameSize. Peers
	// that only ever exchange small frames can set a tight bound so a
	// corrupt or hostile length prefix can't force a large allocation.
	MaxPayload int
}

// NewFrameReader wraps r. Frames returned by Read share one buffer.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Read parses the next frame. The frame's Payload aliases the reader's
// internal buffer and is invalidated by the following Read — callers that
// keep payload bytes across frames must copy them out.
func (fr *FrameReader) Read() (Frame, error) {
	max := fr.MaxPayload
	if max <= 0 {
		max = MaxFrameSize
	}
	f, buf, err := ReadFrameInto(fr.r, fr.buf, max)
	fr.buf = buf
	return f, err
}

// drainFrames reads and discards frames from r until a read fails, and
// returns that error. It serves links whose peer sends only frames the node
// does not act on, such as the parent's result acks; the frames share one
// FrameReader buffer, so a drain allocates once, not once per frame.
func drainFrames(r io.Reader) error {
	fr := NewFrameReader(r)
	for {
		if _, err := fr.Read(); err != nil {
			return err
		}
	}
}

// EncodeResult builds a result payload.
func EncodeResult(sum uint64, ok bool) []byte {
	out := make([]byte, 9)
	binary.BigEndian.PutUint64(out, sum)
	if ok {
		out[8] = 1
	}
	return out
}

// DecodeResult parses a result payload.
func DecodeResult(p []byte) (sum uint64, ok bool, err error) {
	if len(p) != 9 {
		return 0, false, errors.New("transport: malformed result payload")
	}
	return binary.BigEndian.Uint64(p), p[8] == 1, nil
}
