package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// The benchmark's own span recorder. Spans are recorded from outside the
// program, around the calls into each layer; the program's QueryTrace span
// names are internal, free to change, and not used. Each client goroutine
// owns one spanBuf, so recording takes no lock; the buffers are merged and
// written out when the run ends.

// span is one interval. Spans of one operation share Op; Parent is the
// index of the causing span within the same buffer, -1 for the root.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"` // since the traced window began
	End    int64  `json:"end_ns"`
}

type spanBuf struct {
	epoch time.Time
	spans []span
}

func newSpanBuf(epoch time.Time) *spanBuf { return &spanBuf{epoch: epoch} }

// add records a finished span and returns its index, for children to name
// as their parent. A nil buffer records nothing.
func (b *spanBuf) add(name string, op int64, parent int32, start, end time.Time) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name, op, parent, int64(start.Sub(b.epoch)), int64(end.Sub(b.epoch))})
	return int32(len(b.spans) - 1)
}

// layout records consecutive child spans of the given durations starting
// at start: the way a call's internal stages, known only as durations from
// the counters it returns, are placed inside its span.
func (b *spanBuf) layout(op int64, parent int32, start time.Time, names []string, durs []time.Duration) {
	if b == nil {
		return
	}
	for i, n := range names {
		end := start.Add(durs[i])
		b.add(n, op, parent, start, end)
		start = end
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover; overlapping children are counted
// once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// layerShare is one row of the per-layer time table of a traced window.
type layerShare struct {
	Name   string
	Spans  int
	SelfMS float64
	Share  float64 // of the summed duration of the root spans
}

// summarizeSpans totals self time by span name, as a share of the summed
// duration of the root ("op") spans.
func summarizeSpans(bufs []*spanBuf) []layerShare {
	byName := map[string]*layerShare{}
	var rootNS int64
	for _, b := range bufs {
		if b == nil {
			continue
		}
		self := selfTimes(b.spans)
		for i, s := range b.spans {
			ls := byName[s.Name]
			if ls == nil {
				ls = &layerShare{Name: s.Name}
				byName[s.Name] = ls
			}
			ls.Spans++
			ls.SelfMS += float64(self[i]) / 1e6
			if s.Parent < 0 {
				rootNS += s.End - s.Start
			}
		}
	}
	var out []layerShare
	for _, ls := range byName {
		if rootNS > 0 {
			ls.Share = ls.SelfMS * 1e6 / float64(rootNS)
		}
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// writeSpans writes every recorded span, one client's buffer per array.
func writeSpans(path string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	all := make([][]span, 0, len(bufs))
	for _, b := range bufs {
		if b != nil {
			all = append(all, b.spans)
		}
	}
	if err := json.NewEncoder(f).Encode(all); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
