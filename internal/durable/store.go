package durable

import (
	"os"
	"path/filepath"
)

// Conventional file names inside a node's state directory.
const (
	SnapshotName = "state.snap"
	JournalName  = "epochs.wal"
)

// Store is one node's state directory: the latest checkpoint snapshot plus
// the journal of records appended since. It only sequences the two files —
// what the snapshot payload and journal records mean belongs to the node.
type Store struct {
	dir     string
	journal *Journal
}

// Open opens (creating if needed) the state directory and replays the
// journal, returning the records appended since the last checkpoint. The
// snapshot is read separately via LoadSnapshot so a corrupt snapshot and a
// healthy journal fail independently.
func Open(dir string) (*Store, []Record, error) {
	j, recs, err := OpenJournal(filepath.Join(ensureDir(dir), JournalName))
	if err != nil {
		return nil, nil, err
	}
	return &Store{dir: dir, journal: j}, recs, nil
}

// ensureDir best-effort creates dir; OpenJournal surfaces the real error if
// creation failed.
func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

// Journal returns the write-ahead journal for appends and sync control.
func (s *Store) Journal() *Journal { return s.journal }

// LoadSnapshot reads the last checkpoint (ErrNoSnapshot on a fresh dir).
func (s *Store) LoadSnapshot() (uint32, []byte, error) {
	return ReadSnapshot(s.dir, SnapshotName)
}

// Checkpoint atomically writes a new snapshot and then resets the journal.
// The ordering is the crash-consistency contract: a crash after the snapshot
// rename but before the reset leaves journal records the snapshot already
// covers, which idempotent replay re-applies harmlessly; a crash before the
// rename leaves the old snapshot + full journal. Neither loses state.
func (s *Store) Checkpoint(version uint32, payload []byte) error {
	if err := s.journal.Sync(); err != nil {
		return err
	}
	if err := WriteSnapshot(s.dir, SnapshotName, version, payload); err != nil {
		return err
	}
	return s.journal.Reset()
}

// Close syncs and closes the journal. Idempotent.
func (s *Store) Close() error { return s.journal.Close() }

// Abandon closes the journal without syncing — see Journal.Abandon.
func (s *Store) Abandon() error { return s.journal.Abandon() }
