package rdf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Dictionary wire format, little-endian:
//
//	magic "LBRDICT2"
//	u32 numSO, u32 numPredicates
//	then the terms: the S/O space in ID order, then the predicates — each
//	as u8 kind, u32 lens + bytes for value, datatype, lang.
//
// "LBRDICT1" was the Appendix-D layout of separate S and O spaces; it is
// not read.

var dictMagic = []byte("LBRDICT2")

func writeTerm(w *bufio.Writer, t Term) error {
	if err := w.WriteByte(byte(t.Kind)); err != nil {
		return err
	}
	for _, s := range []string{t.Value, t.Datatype, t.Lang} {
		var b4 [4]byte
		binary.LittleEndian.PutUint32(b4[:], uint32(len(s)))
		if _, err := w.Write(b4[:]); err != nil {
			return err
		}
		if _, err := w.WriteString(s); err != nil {
			return err
		}
	}
	return nil
}

func readTerm(r *bufio.Reader) (Term, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return Term{}, err
	}
	if kind > byte(Blank) {
		return Term{}, fmt.Errorf("rdf: corrupt term kind %d", kind)
	}
	var parts [3]string
	for i := range parts {
		var b4 [4]byte
		if _, err := io.ReadFull(r, b4[:]); err != nil {
			return Term{}, err
		}
		n := binary.LittleEndian.Uint32(b4[:])
		if n > 1<<24 {
			return Term{}, fmt.Errorf("rdf: implausible term length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return Term{}, err
		}
		parts[i] = string(buf)
	}
	return Term{Kind: TermKind(kind), Value: parts[0], Datatype: parts[1], Lang: parts[2]}, nil
}

// WriteTo serializes the dictionary.
func (d *Dictionary) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(dictMagic); err != nil {
		return 0, err
	}
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(d.so)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(d.predicates)))
	if _, err := bw.Write(hdr); err != nil {
		return 0, err
	}
	for _, terms := range [][]Term{d.so, d.predicates} {
		for _, t := range terms {
			if err := writeTerm(bw, t); err != nil {
				return 0, err
			}
		}
	}
	return 0, bw.Flush()
}

// ReadDictionary deserializes a dictionary written by WriteTo.
func ReadDictionary(r io.Reader) (*Dictionary, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(dictMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != string(dictMagic) {
		return nil, fmt.Errorf("rdf: bad dictionary magic %q", magic)
	}
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, err
	}
	nSO := int(binary.LittleEndian.Uint32(hdr[0:]))
	nPred := int(binary.LittleEndian.Uint32(hdr[4:]))
	// The header sizes the tables, capped so a corrupt header cannot
	// demand a huge allocation before the terms run out.
	d := &Dictionary{
		so:          make([]Term, 0, min(nSO, 1<<20)),
		predicates:  make([]Term, 0, min(nPred, 1<<20)),
		soID:        make(map[string]ID, min(nSO, 1<<20)),
		predicateID: make(map[string]ID, min(nPred, 1<<20)),
	}
	read := func(n int, terms *[]Term, ids map[string]ID) error {
		for i := 0; i < n; i++ {
			t, err := readTerm(br)
			if err != nil {
				return err
			}
			*terms = append(*terms, t)
			ids[t.Key()] = ID(len(*terms))
		}
		return nil
	}
	if err := read(nSO, &d.so, d.soID); err != nil {
		return nil, err
	}
	if err := read(nPred, &d.predicates, d.predicateID); err != nil {
		return nil, err
	}
	return d, nil
}
