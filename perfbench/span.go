package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed stage of one job. Spans of a job share its job ID and
// form a tree through parent (-1 for the job's root span).
type span struct {
	Name   string `json:"name"`
	Job    int64  `json:"job"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: core runs its sequential leg on a goroutine of its own, and
// fleet jobs run concurrently.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span now and returns its ID.
func (r *recorder) begin(job int64, parent int, name string) int {
	return r.beginAt(job, parent, name, time.Now())
}

// beginAt opens a span that started at t and returns its ID.
func (r *recorder) beginAt(job int64, parent int, name string, t time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Job: job, ID: id, Parent: parent, Start: t.Sub(r.epoch).Nanoseconds(), End: -1})
	return id
}

// end closes a span now.
func (r *recorder) end(id int) { r.endAt(id, time.Now()) }

// endAt closes a span at t.
func (r *recorder) endAt(id int, t time.Time) {
	r.mu.Lock()
	r.spans[id].End = t.Sub(r.epoch).Nanoseconds()
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(job int64, parent int, name string, start, end time.Time) {
	r.endAt(r.beginAt(job, parent, name, start), end)
}

// stage runs fn inside a span.
func (r *recorder) stage(job int64, parent int, name string, fn func()) {
	id := r.begin(job, parent, name)
	fn()
	r.end(id)
}

// snapshot returns a copy of every closed span.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores every closed span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per job, each span name's summed self time in
// nanoseconds: the span's duration minus the part of it its child spans
// cover. Children running concurrently with each other are merged before
// subtracting, so a parent's self time is never negative.
func selfTimes(spans []span) map[int64]map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[int64]map[string]int64{}
	for _, s := range spans {
		self := s.dur() - covered(s, children[s.ID])
		if out[s.Job] == nil {
			out[s.Job] = map[string]int64{}
		}
		out[s.Job][s.Name] += self
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// overlap returns how much longer kids ran in total than the time their
// union covers: the time concurrent siblings ran side by side.
func overlap(kids []span) int64 {
	var sum, lo, hi int64
	for i, k := range kids {
		sum += k.dur()
		if i == 0 || k.Start < lo {
			lo = k.Start
		}
		if i == 0 || k.End > hi {
			hi = k.End
		}
	}
	if len(kids) == 0 {
		return 0
	}
	return sum - covered(span{Start: lo, End: hi}, kids)
}
