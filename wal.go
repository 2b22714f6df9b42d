package lbr

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"repro/internal/bitmat"
	"repro/internal/rdf"
)

// wal is an append-only write-ahead log of effective mutations. Each entry
// is one line: "A <triple> ." for an insert or "D <triple> ." for a
// delete, with the triple in N-Triples syntax. Entries are fsynced before
// the in-memory state changes, so a crashed process replays to exactly the
// state it acknowledged. The log is truncated by the checkpoint that runs
// after SaveIndex has persisted a snapshot covering every logged mutation
// (see maybeCheckpointWAL); it never shrinks otherwise.
type wal struct {
	mu sync.Mutex
	f  *os.File
}

// append writes one mutation batch (deletes first, matching apply order)
// and syncs it to stable storage.
func (w *wal) append(del, ins []Triple) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var sb strings.Builder
	for _, t := range del {
		sb.WriteString("D ")
		sb.WriteString(t.String())
		sb.WriteString(" .\n")
	}
	for _, t := range ins {
		sb.WriteString("A ")
		sb.WriteString(t.String())
		sb.WriteString(" .\n")
	}
	if _, err := w.f.WriteString(sb.String()); err != nil {
		return err
	}
	return w.f.Sync()
}

// truncate discards every logged entry and syncs the empty file. Only the
// checkpoint calls this, after the full store state has been durably
// persisted elsewhere; append and truncate are both invoked under the
// store mutex, so no entry can slip in between the persist and the cut.
func (w *wal) truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.f.Close()
	w.f = nil
	return err
}

// OpenWAL attaches a write-ahead log to the store, replaying any entries
// the file already holds (crash recovery) and logging every subsequent
// effective mutation to it. It returns the number of replayed entries that
// changed the store — replaying a log over data that already reflects it
// is a no-op, so recovery is idempotent. Call after loading the base data
// (LoadNTriples / OpenIndex) and before serving traffic.
//
// A final line without its trailing newline is the torn tail of an append
// that crashed before its fsync returned, so it was never acknowledged:
// OpenWAL truncates the file to the end of the last complete line, syncs
// it, and replays only the complete lines. A malformed complete line is
// still an error.
func (s *Store) OpenWAL(path string) (int, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return 0, fmt.Errorf("lbr: open wal: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		f.Close()
		return 0, fmt.Errorf("lbr: store already has a WAL attached")
	}

	type entry struct {
		del bool
		t   Triple
	}
	var entries []entry
	br := bufio.NewReaderSize(f, 64*1024)
	var complete int64 // file offset just past the last complete line
	torn := false
	lineNo := 0
	for {
		raw, err := br.ReadString('\n')
		if err == io.EOF {
			torn = raw != ""
			break
		}
		if err != nil {
			f.Close()
			return 0, fmt.Errorf("lbr: read wal: %w", err)
		}
		complete += int64(len(raw))
		lineNo++
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if len(line) < 3 || (line[0] != 'A' && line[0] != 'D') || line[1] != ' ' {
			f.Close()
			return 0, fmt.Errorf("lbr: wal %s:%d: malformed entry", path, lineNo)
		}
		tr, err := rdf.ParseTripleLine(line[2:])
		if err != nil {
			f.Close()
			return 0, fmt.Errorf("lbr: wal %s:%d: %w", path, lineNo, err)
		}
		entries = append(entries, entry{del: line[0] == 'D', t: tr})
	}
	if torn {
		if err := f.Truncate(complete); err != nil {
			f.Close()
			return 0, fmt.Errorf("lbr: truncate torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return 0, fmt.Errorf("lbr: sync wal: %w", err)
		}
	}

	applied := 0
	if len(entries) > 0 {
		// Drop the live snapshot first so per-entry replay does not rebuild
		// an overlay per line; the next query installs one overlay over the
		// whole replayed delta.
		s.snap.Store(nil)
		for _, e := range entries {
			var nd, ni int
			var err error
			if e.del {
				nd, ni, err = s.mutateLocked([]Triple{e.t}, nil, false)
			} else {
				nd, ni, err = s.mutateLocked(nil, []Triple{e.t}, false)
			}
			if err != nil {
				f.Close()
				return applied, err
			}
			applied += nd + ni
		}
	}

	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return applied, fmt.Errorf("lbr: seek wal: %w", err)
	}
	s.wal = &wal{f: f}
	s.walReplayed.Add(int64(applied))
	return applied, nil
}

// maybeCheckpointWAL truncates the attached WAL when the index just
// persisted by SaveIndex still covers the complete store state: the base
// is the saved index and the delta is empty. Every logged entry is then
// folded into the durable snapshot, so replaying the log on top of it
// would be a no-op and the log can be cut to zero. If mutations landed
// after the snapshot was taken — base swapped or delta non-empty — the
// checkpoint conservatively skips; the next SaveIndex retries.
func (s *Store) maybeCheckpointWAL(saved *bitmat.Index) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil || s.base != saved || len(s.ins) > 0 || len(s.del) > 0 {
		return nil
	}
	if err := s.wal.truncate(); err != nil {
		return fmt.Errorf("lbr: wal checkpoint: %w", err)
	}
	s.walCheckpointLSN = s.lsn
	s.walCheckpoints.Add(1)
	return nil
}

// CloseWAL detaches and closes the write-ahead log, if one is attached.
// Subsequent mutations are no longer logged.
func (s *Store) CloseWAL() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.close()
	s.wal = nil
	return err
}
