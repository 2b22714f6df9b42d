package bitmat

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/rdf"
)

// The Index persists as its pair tables (the canonical form from which all
// BitMats materialize). Layout, all little-endian:
//
//	magic "LBRIDX2\n"
//	u32 numPredicates, u32 numSO, u64 numTriples
//	per predicate: u32 pairCount, pairCount x (u32 S, u32 O)
//
// The OS order and the per-subject / per-object postings are rebuilt on
// load; they are derived data. The dictionary is persisted separately by
// the caller (it owns the term strings). "LBRIDX1\n" sized the S and O
// dimensions apart; it is not read.

var indexMagic = []byte("LBRIDX2\n")

// WriteTo serializes the index pair tables.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	m, err := bw.Write(indexMagic)
	n += int64(m)
	if err != nil {
		return n, err
	}
	hdr := make([]byte, 4*2+8)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(idx.soPairs)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(idx.bySubject)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(idx.nTriples))
	m, err = bw.Write(hdr)
	n += int64(m)
	if err != nil {
		return n, err
	}
	var buf [8]byte
	for _, pairs := range idx.soPairs {
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(pairs)))
		m, err = bw.Write(buf[:4])
		n += int64(m)
		if err != nil {
			return n, err
		}
		for _, pr := range pairs {
			binary.LittleEndian.PutUint32(buf[0:], pr.A)
			binary.LittleEndian.PutUint32(buf[4:], pr.B)
			m, err = bw.Write(buf[:])
			n += int64(m)
			if err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// ReadIndex deserializes an index written by WriteTo. The caller supplies
// the dictionary (persisted separately); derived sort orders are rebuilt.
func ReadIndex(r io.Reader, dict *rdf.Dictionary) (*Index, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != string(indexMagic) {
		return nil, fmt.Errorf("bitmat: bad magic %q", magic)
	}
	hdr := make([]byte, 4*2+8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, err
	}
	nP := int(binary.LittleEndian.Uint32(hdr[0:]))
	nSO := int(binary.LittleEndian.Uint32(hdr[4:]))
	nT := int64(binary.LittleEndian.Uint64(hdr[8:]))

	if dict != nil {
		if dict.NumPredicates() != nP || dict.NumSO() != nSO {
			return nil, fmt.Errorf("bitmat: dictionary shape (%d,%d) does not match index (%d,%d)",
				dict.NumPredicates(), dict.NumSO(), nP, nSO)
		}
	}

	idx := &Index{
		dict:      dict,
		soPairs:   make([][]Pair, nP),
		osPairs:   make([][]Pair, nP),
		bySubject: make([][]Pair, nSO),
		byObject:  make([][]Pair, nSO),
		nTriples:  nT,
	}
	var buf [8]byte
	var total int64
	for p := 0; p < nP; p++ {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, err
		}
		cnt := int(binary.LittleEndian.Uint32(buf[:4]))
		pairs := make([]Pair, cnt)
		for i := 0; i < cnt; i++ {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return nil, err
			}
			s := binary.LittleEndian.Uint32(buf[0:])
			o := binary.LittleEndian.Uint32(buf[4:])
			if s == 0 || int(s) > nSO || o == 0 || int(o) > nSO {
				return nil, fmt.Errorf("bitmat: pair (%d,%d) out of range", s, o)
			}
			pairs[i] = Pair{A: s, B: o}
			idx.osPairs[p] = append(idx.osPairs[p], Pair{A: o, B: s})
			idx.bySubject[s-1] = append(idx.bySubject[s-1], Pair{A: uint32(p + 1), B: o})
			idx.byObject[o-1] = append(idx.byObject[o-1], Pair{A: uint32(p + 1), B: s})
		}
		idx.soPairs[p] = pairs
		total += int64(cnt)
	}
	if total != nT {
		return nil, fmt.Errorf("bitmat: header claims %d triples, found %d", nT, total)
	}
	sortDerived(idx)
	return idx, nil
}

func sortDerived(idx *Index) {
	for _, fam := range [][][]Pair{idx.osPairs, idx.bySubject, idx.byObject} {
		for _, l := range fam {
			sortPairs(l)
		}
	}
}
