package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"tegrecon/internal/core"
	"tegrecon/internal/predict"
)

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder's epoch; Parent is 0 for a root span.
// Run groups the spans of one session, job or request.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall-clock length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. Spans are
// appended to per-track buffers, so the hot path takes no lock; a
// track must be used by one goroutine at a time.
type Recorder struct {
	epoch  time.Time
	mu     sync.Mutex
	tracks []*Track
}

// NewRecorder starts a recorder whose clock reads 0 now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Track returns a new span buffer for one run (a session, job or
// request stream).
func (r *Recorder) Track(run string) *Track {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Track{rec: r, run: run, idBase: int64(len(r.tracks)+1) << 32}
	r.tracks = append(r.tracks, t)
	return t
}

// Spans returns every recorded span, tracks in creation order.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for _, t := range r.tracks {
		out = append(out, t.spans...)
	}
	return out
}

// WriteFile writes every span as one JSON document.
func (r *Recorder) WriteFile(path string) error {
	b, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Track is one run's span buffer with its open-span stack, which
// gives each new span its parent.
type Track struct {
	rec    *Recorder
	run    string
	idBase int64
	spans  []Span
	stack  []int // indices into spans of the open spans
}

// Begin opens a span as a child of the innermost open one and returns
// its handle for End.
func (t *Track) Begin(name string) int {
	var parent int64
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, Span{
		ID:     t.idBase + int64(i) + 1,
		Parent: parent,
		Run:    t.run,
		Name:   name,
		Start:  int64(time.Since(t.rec.epoch)),
	})
	t.stack = append(t.stack, i)
	return i
}

// End closes the span Begin returned; spans close innermost first.
func (t *Track) End(h int) {
	t.spans[h].End = int64(time.Since(t.rec.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// Add records an already-timed span as a root of this track.
func (t *Track) Add(name string, start, end time.Time) {
	t.spans = append(t.spans, Span{
		ID:    t.idBase + int64(len(t.spans)) + 1,
		Run:   t.run,
		Name:  name,
		Start: int64(start.Sub(t.rec.epoch)),
		End:   int64(end.Sub(t.rec.epoch)),
	})
}

// SelfTimes returns each span's duration minus the part of its
// interval covered by its children. Children may overlap one another
// (concurrent work under one parent); the covered part is their union,
// clipped to the parent.
func SelfTimes(spans []Span) map[int64]int64 {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals
// inside the parent's.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// meanUs is total nanoseconds per count, in microseconds (0 when the
// layer did no work).
func meanUs(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e3
}

// timedController records a span around every Decide of the wrapped
// controller and counts the decisions that switched topology. Name and
// Reset pass through unchanged, so a session cannot tell it from the
// controller it wraps. Checkpoint interfaces are not forwarded; the
// benchmark never checkpoints.
type timedController struct {
	core.Controller
	t        *Track
	span     string
	switched int
}

func newTimedController(c core.Controller, t *Track, span string) *timedController {
	return &timedController{Controller: c, t: t, span: span}
}

func (c *timedController) Decide(tick int, tempsC []float64, ambientC float64) (core.Decision, error) {
	h := c.t.Begin(c.span)
	d, err := c.Controller.Decide(tick, tempsC, ambientC)
	c.t.End(h)
	if d.Switched {
		c.switched++
	}
	return d, err
}

// timedPredictor records spans around Observe and Predict; inside a
// DNOR Decide they nest under its span, so Decide's self time excludes
// them.
type timedPredictor struct {
	predict.Predictor
	t *Track
}

func (p *timedPredictor) Observe(temps []float64) error {
	h := p.t.Begin("predict.observe")
	err := p.Predictor.Observe(temps)
	p.t.End(h)
	return err
}

func (p *timedPredictor) Predict(horizon int) ([][]float64, error) {
	h := p.t.Begin("predict.predict")
	out, err := p.Predictor.Predict(horizon)
	p.t.End(h)
	return out, err
}

// spanFile names the span dump of one run under the output directory.
func spanFile(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/spans-%s-%d.json", dir, workload, seed)
}
