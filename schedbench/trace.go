package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request
// share ReqID; Parent is the span (of the same request) whose time
// this one accounts for part of.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	ReqID  int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID.
func (l *spanLog) begin(name string, parent, req int64) int64 {
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, ReqID: req, Name: name, Start: now})
	return id
}

func (l *spanLog) end(id int64) {
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// add records a span measured elsewhere and returns its ID.
func (l *spanLog) add(name string, parent, req int64, start time.Time, d time.Duration) int64 {
	s := start.Sub(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, ReqID: req, Name: name, Start: s, End: s + d.Nanoseconds()})
	return id
}

// selfNs is each span's duration minus its children's durations.
// Children from the replay are timed in their own pass, not nested
// in the parent's interval, so the subtraction is of durations.
func (l *spanLog) selfNs() map[int64]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	self := make(map[int64]int64, len(l.spans))
	for _, s := range l.spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// write dumps every span as one JSON object per line.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(&s); err != nil {
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
