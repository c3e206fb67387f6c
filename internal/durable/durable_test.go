package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("the quick brown fox")
	if err := WriteSnapshot(dir, SnapshotName, 3, payload); err != nil {
		t.Fatal(err)
	}
	v, got, err := ReadSnapshot(dir, SnapshotName)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 || !bytes.Equal(got, payload) {
		t.Fatalf("got version %d payload %q", v, got)
	}
}

func TestSnapshotMissing(t *testing.T) {
	if _, _, err := ReadSnapshot(t.TempDir(), SnapshotName); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("missing snapshot: %v", err)
	}
}

func TestSnapshotReplaceAtomic(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, SnapshotName, 1, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(dir, SnapshotName, 2, []byte("new")); err != nil {
		t.Fatal(err)
	}
	v, got, err := ReadSnapshot(dir, SnapshotName)
	if err != nil || v != 2 || string(got) != "new" {
		t.Fatalf("after replace: v=%d %q %v", v, got, err)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory litter: %v", entries)
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, SnapshotName, 1, []byte("payload bytes here")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SnapshotName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { b = append([]byte(nil), b...); b[len(b)/2] ^= 1; return b }, // bit flip
		func(b []byte) []byte { return b[:len(b)-3] },                                       // truncation
		func(b []byte) []byte { b = append([]byte(nil), b...); b[0] = 'X'; return b },       // bad magic
	} {
		if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadSnapshot(dir, SnapshotName); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corruption not detected: %v", err)
		}
	}
}

func openJournal(t *testing.T, path string) (*Journal, []Record) {
	t.Helper()
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	return j, recs
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, recs := openJournal(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []Record{
		{Type: 1, Payload: []byte("one")},
		{Type: 2, Payload: nil},
		{Type: 7, Payload: bytes.Repeat([]byte{0xab}, 1000)},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs := openJournal(t, path)
	defer j2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Type != want[i].Type || !bytes.Equal(r.Payload, want[i].Payload) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
	if j2.TruncatedBytes() != 0 {
		t.Fatalf("clean journal reported %d torn bytes", j2.TruncatedBytes())
	}
}

// TestAppendSyncSerial checks the querier's commit path: at the default
// SyncEvery of 1 each Append carries its own fsync before it returns, so k
// serial commits take k fsyncs and all k survive a crash that skips the
// final fsync.
func TestAppendSyncSerial(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serial.wal")
	j, _ := openJournal(t, path)
	const k = 5
	for i := 0; i < k; i++ {
		if err := j.Append(Record{Type: 1, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
		if st := j.Stats(); st.Appends != i+1 || st.Syncs != int64(i+1) {
			t.Fatalf("after commit %d: %+v, want %d appends and fsyncs", i, st, i+1)
		}
	}
	if err := j.Abandon(); err != nil {
		t.Fatal(err)
	}
	j2, replayed := openJournal(t, path)
	defer j2.Close()
	if len(replayed) != k {
		t.Fatalf("replayed %d, want %d", len(replayed), k)
	}
	for i, r := range replayed {
		if r.Type != 1 || !bytes.Equal(r.Payload, []byte{byte(i)}) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
}

// TestJournalTornTail is the crash-mid-append case: the final record is cut
// short; replay must recover every record before it and truncate the tail so
// subsequent appends extend a clean journal.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, _ := openJournal(t, path)
	for i := 0; i < 5; i++ {
		if err := j.Append(Record{Type: 1, Payload: []byte{byte(i), 1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	for cut := 1; cut <= 12; cut++ { // tear at various depths into the last record
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		torn := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(torn, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, recs := openJournal(t, torn)
		if len(recs) != 4 {
			t.Fatalf("cut %d: replayed %d records, want 4", cut, len(recs))
		}
		if j2.TruncatedBytes() == 0 {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		// The journal must be appendable and replayable after truncation.
		if err := j2.Append(Record{Type: 9, Payload: []byte("after")}); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		j3, recs := openJournal(t, torn)
		if len(recs) != 5 || recs[4].Type != 9 {
			t.Fatalf("cut %d: post-truncate replay %d records", cut, len(recs))
		}
		j3.Close()
	}
}

// TestJournalCorruptMiddle: a bit flip in an interior record cuts replay at
// that record (everything after is unreachable without its framing), and open
// truncates there.
func TestJournalCorruptMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, _ := openJournal(t, path)
	if err := j.Append(Record{Type: 1, Payload: []byte("first record")}); err != nil {
		t.Fatal(err)
	}
	firstLen := j.Size()
	if err := j.Append(Record{Type: 2, Payload: []byte("second record")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: 3, Payload: []byte("third record")}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[firstLen+7] ^= 0x40 // flip a bit inside the second record
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, recs := openJournal(t, path)
	defer j2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "first record" {
		t.Fatalf("replay after interior corruption: %d records", len(recs))
	}
	if j2.Size() != firstLen {
		t.Fatalf("journal not truncated at corruption: size %d want %d", j2.Size(), firstLen)
	}
}

func TestJournalReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, _ := openJournal(t, path)
	for i := 0; i < 3; i++ {
		if err := j.Append(Record{Type: 1, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if j.Size() != 0 {
		t.Fatalf("size after reset: %d", j.Size())
	}
	if err := j.Append(Record{Type: 5, Payload: []byte("fresh")}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, recs := openJournal(t, path)
	defer j2.Close()
	if len(recs) != 1 || recs[0].Type != 5 {
		t.Fatalf("replay after reset: %+v", recs)
	}
}

func TestJournalSyncEveryBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, _ := openJournal(t, path)
	defer j.Close()
	j.SyncEvery = 8
	for i := 0; i < 20; i++ {
		if err := j.Append(Record{Type: 1, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Stats().Syncs; got != 2 {
		t.Fatalf("20 appends at SyncEvery=8 issued %d fsyncs, want 2", got)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats().Syncs; got != 3 {
		t.Fatalf("explicit Sync: %d fsyncs, want 3", got)
	}
}

func TestStoreCheckpointCycle(t *testing.T) {
	dir := t.TempDir()
	s, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh store replayed %d records", len(recs))
	}
	if _, _, err := s.LoadSnapshot(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("fresh store snapshot: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Journal().Append(Record{Type: 1, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(1, []byte("checkpointed")); err != nil {
		t.Fatal(err)
	}
	if err := s.Journal().Append(Record{Type: 2, Payload: []byte("post")}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, payload, err := s2.LoadSnapshot()
	if err != nil || v != 1 || string(payload) != "checkpointed" {
		t.Fatalf("snapshot after reopen: v=%d %q %v", v, payload, err)
	}
	if len(recs) != 1 || recs[0].Type != 2 {
		t.Fatalf("journal after checkpoint: %+v", recs)
	}
}

// TestStoreSnapshotNewerThanJournal models a crash between Checkpoint's
// snapshot rename and journal reset: the journal still holds records the
// snapshot covers. The store surfaces both; the consumer's idempotent replay
// is what makes this safe, so here we only assert nothing is lost or cut.
func TestStoreSnapshotNewerThanJournal(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Journal().Append(Record{Type: 1, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the torn checkpoint: snapshot written, reset never happened.
	if err := WriteSnapshot(dir, SnapshotName, 7, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, payload, err := s2.LoadSnapshot()
	if err != nil || v != 7 || string(payload) != "newer" {
		t.Fatalf("snapshot: v=%d %q %v", v, payload, err)
	}
	if len(recs) != 3 {
		t.Fatalf("journal records: %d, want 3 (stale but intact)", len(recs))
	}
}

func TestReplayJournalRejectsGarbageLength(t *testing.T) {
	raw := []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}
	recs, good, err := ReplayJournal(bytes.NewReader(raw))
	if len(recs) != 0 || good != 0 || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage length: %d recs, good=%d, err=%v", len(recs), good, err)
	}
}
