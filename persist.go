package lbr

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/bitmat"
	"repro/internal/rdf"
)

// Store snapshot format: a small header, the dictionary, then the index
// pair tables. The raw triples are not stored; the index is the canonical
// representation. "LBRSTOR1" snapshots numbered subjects and objects in
// two spaces; OpenIndex rejects them with ErrSnapshotVersion.
var storeMagic = []byte("LBRSTOR2")

// ErrSnapshotVersion is returned, wrapped, by OpenIndex for a snapshot
// that an earlier format of SaveIndex wrote. Rebuild the store from its
// triples and save it again.
var ErrSnapshotVersion = errors.New("lbr: snapshot format no longer supported")

// SaveIndex writes the built dictionary and index so a later process can
// query without re-parsing N-Triples. Build is invoked first if needed.
// The snapshot depends only on the graph's triple set — the dictionary
// layout is a pure function of the term set and the pair tables are
// canonically sorted — so the same triples always write the same bytes,
// whatever order they arrived in (TestSaveIndexGoldenDigest pins them).
func (s *Store) SaveIndex(w io.Writer) error {
	idx, err := s.ensureIndex()
	if err != nil {
		return err
	}
	// Format-compat assertion: a build-path bug that desynchronized the
	// pair tables from the dictionary would otherwise persist a snapshot
	// that only fails (or worse, misanswers) when reloaded.
	if err := idx.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(storeMagic); err != nil {
		return err
	}
	if _, err := idx.Dictionary().WriteTo(bw); err != nil {
		return err
	}
	if _, err := idx.WriteTo(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The snapshot now covers every mutation the WAL logged (ensureIndex
	// compacted first), so checkpoint: sync the destination if it can be
	// synced, then cut the log. Skipped automatically if mutations raced in.
	if f, ok := w.(interface{ Sync() error }); ok {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	return s.maybeCheckpointWAL(idx)
}

// OpenIndex loads a snapshot written by SaveIndex into a queryable store.
// The loaded index becomes the store's base as it is, without decoding a
// triple: Len, Stats, and WriteNTriples read it, and later mutations form a
// delta overlay over it like on any built store.
func OpenIndex(r io.Reader) (*Store, error) {
	return OpenIndexWithOptions(r, Options{})
}

// OpenIndexWithOptions is OpenIndex with options applied to the loaded
// store.
func OpenIndexWithOptions(r io.Reader, opts Options) (*Store, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(storeMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != string(storeMagic) {
		if string(magic) == "LBRSTOR1" {
			return nil, fmt.Errorf("%w: %q", ErrSnapshotVersion, magic)
		}
		return nil, fmt.Errorf("lbr: bad store magic %q", magic)
	}
	dict, err := rdf.ReadDictionary(br)
	if err != nil {
		return nil, fmt.Errorf("lbr: dictionary: %w", err)
	}
	idx, err := bitmat.ReadIndex(br, dict)
	if err != nil {
		return nil, fmt.Errorf("lbr: index: %w", err)
	}
	st := NewStoreWithOptions(opts)
	st.installIndexLocked(idx)
	return st, nil
}
