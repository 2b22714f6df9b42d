// Package trace is the query-tracing backbone of the engine's
// observability layer: a tree of timed spans recording what one query
// execution did per phase — planner decisions, per-pattern cache
// outcomes, per-jvar prune levels, join partitioning, and merge/modifier
// time.
//
// The design constraint is zero cost when disabled. Every method is
// nil-safe: a nil *Tracer yields nil *Spans, Child on a nil span returns
// nil, and Set/End on nil are no-ops, so instrumented code threads one
// *Span pointer and pays a nil check per call site — no allocation, no
// clock read — when no tracer is attached. Call sites that would compute
// an attribute value (a pattern's string form, a matrix count) guard the
// computation with an explicit nil check so the disabled path does not
// even evaluate the arguments.
//
// Tracing never perturbs results: spans are created per phase, pattern,
// jvar level, and branch — never per row — and record timings and
// counts only, so traced and untraced runs of one query are
// byte-identical (pinned by the differential test in the root package).
package trace

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// Tracer owns one query's span tree. All spans of a tracer share its
// mutex, so any goroutine may append children and attributes to its
// spans, or snapshot the tree, while others do the same.
type Tracer struct {
	mu   sync.Mutex
	root *Span
}

// New starts a tracer whose root span begins now.
func New(name string) *Tracer {
	t := &Tracer{}
	t.root = &Span{t: t, name: name, start: time.Now()}
	return t
}

// Root returns the root span. Nil-safe: a nil tracer has a nil root, and
// instrumented code threads that nil through without cost.
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span (idempotently) and returns it.
func (t *Tracer) Finish() *Span {
	if t == nil {
		return nil
	}
	t.root.End()
	return t.root
}

// Span is one timed node of the trace tree. The zero of the type is
// never used; a disabled trace is a nil *Span, on which every method is
// a no-op.
type Span struct {
	t        *Tracer
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []attr
	children []*Span
}

type attr struct {
	key string
	val any
}

// Child starts a sub-span. Returns nil (still safe to use) on a nil
// receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{t: s.t, name: name, start: time.Now()}
	s.t.mu.Lock()
	s.children = append(s.children, c)
	s.t.mu.Unlock()
	return c
}

// End records the span's duration. Idempotent; no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.t.mu.Lock()
	if !s.ended {
		s.ended, s.dur = true, d
	}
	s.t.mu.Unlock()
}

// Set attaches one attribute. Later sets of the same key win in the JSON
// rendering. No-op on nil — but note the value argument is evaluated at
// the call site either way, so hot paths guard computed values with an
// explicit nil check.
func (s *Span) Set(key string, v any) {
	if s == nil {
		return
	}
	if d, ok := v.(time.Duration); ok {
		v = durMS(d)
	}
	s.t.mu.Lock()
	s.attrs = append(s.attrs, attr{key: key, val: v})
	s.t.mu.Unlock()
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the recorded duration (0 on nil or before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.dur
}

// Children returns a copy of the span's current children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attr returns the last-set value of an attribute key.
func (s *Span) Attr(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i := len(s.attrs) - 1; i >= 0; i-- {
		if s.attrs[i].key == key {
			return s.attrs[i].val, true
		}
	}
	return nil, false
}

// Find returns the first descendant (depth-first, self included) with
// the given name, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.findLocked(name)
}

func (s *Span) findLocked(name string) *Span {
	if s.name == name {
		return s
	}
	for _, c := range s.children {
		if m := c.findLocked(name); m != nil {
			return m
		}
	}
	return nil
}

// FindAll returns every descendant (depth-first, self included) with the
// given name.
func (s *Span) FindAll(name string) []*Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	var out []*Span
	s.findAllLocked(name, &out)
	return out
}

func (s *Span) findAllLocked(name string, out *[]*Span) {
	if s.name == name {
		*out = append(*out, s)
	}
	for _, c := range s.children {
		c.findAllLocked(name, out)
	}
}

// Count reports the number of spans in the subtree rooted at s.
func (s *Span) Count() int {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.countLocked()
}

func (s *Span) countLocked() int {
	n := 1
	for _, c := range s.children {
		n += c.countLocked()
	}
	return n
}

// SpanJSON is the serialized form of one span: offsets and durations in
// milliseconds relative to the trace root, attributes as an object, and
// children in creation order.
type SpanJSON struct {
	Name       string         `json:"name"`
	StartMS    float64        `json:"start_ms"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanJSON     `json:"children,omitempty"`
}

// Snapshot converts the span subtree to its plain serializable form,
// taking the tracer lock once for the whole tree.
func (s *Span) Snapshot() *SpanJSON {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	v := s.snapshotLocked(s.t.root.start)
	return &v
}

func (s *Span) snapshotLocked(origin time.Time) SpanJSON {
	v := SpanJSON{
		Name:       s.name,
		StartMS:    durMS(s.start.Sub(origin)),
		DurationMS: durMS(s.dur),
	}
	if len(s.attrs) > 0 {
		v.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			v.Attrs[a.key] = a.val
		}
	}
	for _, c := range s.children {
		v.Children = append(v.Children, c.snapshotLocked(origin))
	}
	return v
}

// MarshalJSON renders the span subtree; a nil span renders as null.
func (s *Span) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	return json.Marshal(s.Snapshot())
}

// durMS converts a duration to fractional milliseconds rounded to
// microsecond precision, the unit every serialized timing uses.
func durMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000.0
}

// QueryHash is the stable aggregation key of a query text: FNV-64a over
// the whitespace-normalized source, so reformatted copies of one query
// hash identically in the slow-query log.
func QueryHash(src string) string {
	h := fnv.New64a()
	pending := false
	wrote := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			pending = wrote
			continue
		}
		if pending {
			h.Write([]byte{' '})
			pending = false
		}
		h.Write([]byte{c})
		wrote = true
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
