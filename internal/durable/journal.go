package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// MaxRecordSize bounds one journal record's payload. It is generous for the
// records the nodes write (an epoch commit is tens of bytes, a quarantine
// snapshot a few KiB) while rejecting garbage length prefixes on replay
// before they can drive a giant allocation.
const MaxRecordSize = 1 << 24

// Record is one journal entry: a consumer-defined type tag plus its payload.
type Record struct {
	Type    uint8
	Payload []byte
}

// Record framing (integers big-endian):
//
//	len(u32) type(u8) payload crc32(u32)
//
// len counts type+payload; the CRC covers len ‖ type ‖ payload. Replay stops
// at the first record that is short, oversized or fails its checksum — the
// torn tail a crash mid-append leaves behind — and Open truncates the file
// there so the journal is clean for the next append.

// Journal is an append-only write-ahead log. Appends are serialised; Sync
// policy is the caller's: Append never fsyncs by itself unless SyncEvery is 1
// (the default), so consumers can batch cheap records and fsync on the
// records that carry commit semantics.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	buf  []byte

	// SyncEvery fsyncs after every n-th Append (1 = every append, the
	// default; 0 behaves like 1). Records between syncs can be lost to a
	// crash — safe only for records whose loss the protocol already
	// tolerates (e.g. contributions that children re-send).
	SyncEvery  int
	sinceSync  int
	appended   int // records appended since open/reset (telemetry, tests)
	replayed   int // records recovered at open (telemetry, tests)
	truncated  int64
	goodOffset int64
	syncs      int64 // fsyncs issued (telemetry)
}

// JournalStats is a snapshot of the journal's append/sync counters.
type JournalStats struct {
	Appends  int   // records appended since open/reset
	Replayed int   // records recovered at open
	Syncs    int64 // fsyncs issued (Append, Sync and Reset)
}

// OpenJournal opens (creating if needed) the journal at path, replays every
// intact record and truncates any torn tail. The returned records are in
// append order; re-applying them must be the caller's idempotent recovery.
func OpenJournal(path string) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	recs, good, err := ReplayJournal(bufio.NewReader(f))
	if err != nil && !errors.Is(err, ErrCorrupt) {
		f.Close()
		return nil, nil, err
	}
	st, serr := f.Stat()
	if serr != nil {
		f.Close()
		return nil, nil, serr
	}
	j := &Journal{f: f, path: path, SyncEvery: 1, replayed: len(recs), goodOffset: good}
	if good < st.Size() {
		// Torn or corrupt tail: cut it so the next append starts on a clean
		// record boundary instead of extending garbage.
		j.truncated = st.Size() - good
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, recs, nil
}

// ReplayJournal parses records from r until EOF or the first damaged record,
// returning the intact records and the byte offset where the clean prefix
// ends. A damaged record reports ErrCorrupt alongside everything recovered
// before it; a clean EOF (including mid-record truncation, the torn-tail
// case) returns nil error.
func ReplayJournal(r io.Reader) ([]Record, int64, error) {
	var (
		recs []Record
		good int64
		hdr  [5]byte
	)
	torn := func(err error) (bool, error) {
		if err == nil {
			return false, nil
		}
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return true, nil // clean EOF or a record torn by a crash mid-append
		}
		return false, err // a real read error, not a torn tail
	}
	for {
		if _, err := io.ReadFull(r, hdr[:4]); err != nil {
			_, err = torn(err)
			return recs, good, err
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		if n < 1 || n > MaxRecordSize+1 {
			return recs, good, fmt.Errorf("%w: record length %d", ErrCorrupt, n)
		}
		if _, err := io.ReadFull(r, hdr[4:5]); err != nil {
			_, err = torn(err)
			return recs, good, err
		}
		body := make([]byte, n-1+4) // payload + crc
		if _, err := io.ReadFull(r, body); err != nil {
			_, err = torn(err)
			return recs, good, err
		}
		crc := crc32.NewIEEE()
		crc.Write(hdr[:5])
		crc.Write(body[:n-1])
		if crc.Sum32() != binary.BigEndian.Uint32(body[n-1:]) {
			return recs, good, fmt.Errorf("%w: record checksum", ErrCorrupt)
		}
		recs = append(recs, Record{Type: hdr[4], Payload: body[: n-1 : n-1]})
		good += int64(4 + 1 + len(body))
	}
}

// appendLocked frames and writes rec in a single Write call, so a crash tears
// at most the final record. Caller holds j.mu.
func (j *Journal) appendLocked(rec Record) error {
	if j.f == nil {
		return errors.New("durable: journal closed")
	}
	j.buf = j.buf[:0]
	j.buf = binary.BigEndian.AppendUint32(j.buf, uint32(1+len(rec.Payload)))
	j.buf = append(j.buf, rec.Type)
	j.buf = append(j.buf, rec.Payload...)
	sum := crc32.ChecksumIEEE(j.buf)
	j.buf = binary.BigEndian.AppendUint32(j.buf, sum)
	if _, err := j.f.Write(j.buf); err != nil {
		return err
	}
	j.goodOffset += int64(len(j.buf))
	j.appended++
	j.sinceSync++
	return nil
}

// syncLocked fsyncs the journal file. Caller holds j.mu.
func (j *Journal) syncLocked() error {
	j.sinceSync = 0
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.syncs++
	return nil
}

// Append frames and writes rec, fsyncing per the SyncEvery policy.
func (j *Journal) Append(rec Record) error {
	if len(rec.Payload) > MaxRecordSize {
		return fmt.Errorf("durable: record payload %d exceeds limit", len(rec.Payload))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendLocked(rec); err != nil {
		return err
	}
	every := j.SyncEvery
	if every < 1 {
		every = 1
	}
	if j.sinceSync >= every {
		return j.syncLocked()
	}
	return nil
}

// Sync flushes appended records to stable storage immediately.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.syncLocked()
}

// Reset empties the journal — the step after a successful checkpoint has
// folded its records into the snapshot.
func (j *Journal) Reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("durable: journal closed")
	}
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	j.goodOffset, j.appended = 0, 0
	return j.syncLocked()
}

// Stats returns a snapshot of the journal's append/sync counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{Appends: j.appended, Replayed: j.replayed, Syncs: j.syncs}
}

// Size returns the journal's clean length in bytes.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.goodOffset
}

// TruncatedBytes reports how many torn-tail bytes Open cut off — nonzero
// exactly when the previous process died mid-append.
func (j *Journal) TruncatedBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.truncated
}

// Abandon closes the journal without the final fsync — the crash-simulation
// path. Writes already issued remain visible to a reopen on the same machine
// (they live in the OS), exactly like a process kill. Idempotent with Close.
func (j *Journal) Abandon() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Close syncs and closes the journal. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
