package suite

import (
	"encoding/json"
	"os"
	"time"
)

// Span is one timed call the driver made into a layer. Spans are recorded
// from the benchmark's side of the public API only; spans inside the engine
// are a later change (ROADMAP, job profiles).
type Span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 for a root
	Job    int     `json:"job"`    // job number, -1 during set-up
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the end-to-end tier runs with tracing off at no cost. The
// driver is single-threaded, so a stack gives each span its parent.
type tracer struct {
	t0    time.Time
	spans []Span
	stack []int
	job   int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), job: -1} }

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Start: time.Since(t.t0).Seconds(), Parent: parent, Job: t.job})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id].End = time.Since(t.t0).Seconds()
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// perJob sums the durations of the named spans inside each job in jobs and
// returns one total per job that had any.
func (t *tracer) perJob(name string, jobs map[int]bool) []float64 {
	if t == nil {
		return nil
	}
	tot := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name && jobs[s.Job] {
			tot[s.Job] += s.End - s.Start
		}
	}
	out := make([]float64, 0, len(tot))
	for _, d := range tot {
		out = append(out, d)
	}
	return out
}

// durations returns the duration of every span with the given name,
// set-up spans included.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTime is a span's duration minus the part its children cover.
func (t *tracer) selfTime(id int) float64 {
	s := t.spans[id]
	self := s.End - s.Start
	for _, c := range t.spans {
		if c.Parent == id {
			self -= c.End - c.Start
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
