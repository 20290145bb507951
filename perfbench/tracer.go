package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Parent is the id of the span that caused it, -1 for a root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per layer call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, StartUS: at})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndUS = at
}

// record adds an already-timed span.
func (t *tracer) record(name string, parent int, begin, end time.Time) {
	if t == nil {
		return
	}
	s := float64(begin.Sub(t.t0)) / float64(time.Microsecond)
	e := float64(end.Sub(t.t0)) / float64(time.Microsecond)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, StartUS: s, EndUS: e})
}

// durationsMS returns the durations of every closed span named name, in ms.
func (t *tracer) durationsMS(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndUS > 0 {
			out = append(out, (s.EndUS-s.StartUS)/1000)
		}
	}
	return out
}

// medianMS is the median duration of the spans named name, 0 if none.
func (t *tracer) medianMS(name string) float64 {
	d := t.durationsMS(name)
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
