package bitmat

import "repro/internal/rdf"

// SizeReport accounts the on-disk footprint of the full 2|Vp| + |Vs| + |Vo|
// BitMat family in 4-byte integers, under both the hybrid codec and a pure
// run-length codec. Section 4 of the paper reports the hybrid scheme saving
// as much as 40% over RLE alone; BenchmarkAblationHybridVsRLE regenerates
// that comparison.
type SizeReport struct {
	BitMats       int   // number of BitMats accounted
	HybridInts    int64 // total integers under the hybrid codec
	RLEInts       int64 // total integers under pure RLE
	TriplesStored int64 // total set bits across the SO family (== triples)
}

// HybridBytes returns the hybrid footprint in bytes.
func (r SizeReport) HybridBytes() int64 { return r.HybridInts * 4 }

// RLEBytes returns the pure-RLE footprint in bytes.
func (r SizeReport) RLEBytes() int64 { return r.RLEInts * 4 }

// Savings returns the fractional size reduction of hybrid vs RLE.
func (r SizeReport) Savings() float64 {
	if r.RLEInts == 0 {
		return 0
	}
	return 1 - float64(r.HybridInts)/float64(r.RLEInts)
}

// Sizes materializes every BitMat of all four families transiently and
// accumulates their encoded sizes. Memory stays bounded because matrices
// are released between iterations.
func (idx *Index) Sizes() SizeReport {
	var rep SizeReport
	addMat := func(m *Matrix) {
		rep.BitMats++
		rep.HybridInts += m.WireSize()
		rep.RLEInts += m.RLEWireSize()
	}
	for p := 1; p <= idx.dict.NumPredicates(); p++ {
		so := MatSO(idx, rdf.ID(p), nil, nil)
		rep.TriplesStored += so.Count()
		addMat(so)
		addMat(MatOS(idx, rdf.ID(p), nil, nil))
	}
	// One P-O BitMat per subject and one P-S BitMat per object: a term
	// without the role has no BitMat of that family.
	for id := 1; id <= idx.dict.NumSO(); id++ {
		if len(idx.bySubject[id-1]) > 0 {
			addMat(MatPO(idx, rdf.ID(id)))
		}
		if len(idx.byObject[id-1]) > 0 {
			addMat(MatPS(idx, rdf.ID(id)))
		}
	}
	return rep
}
