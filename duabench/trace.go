package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"edgecache/internal/model"
	"edgecache/internal/transport"
)

// Span names. Each one marks a call into a layer's public API made from the
// benchmark's own code (the replay engine and the wrappers below).
const (
	spanRun          = "run"
	spanSweep        = "core.sweep"
	spanPhase        = "core.phase"
	spanBeginPhase   = "model.tracker.begin_phase"
	spanYMinus       = "model.tracker.yminus"
	spanSolve        = "core.solve"
	spanPerturb      = "core.lppm.perturb"
	spanInstall      = "model.tracker.install"
	spanCostEval     = "model.cost.eval"
	spanSend         = "transport.send"
	spanCodec        = "transport.codec"
	spanBSRecv       = "sim.bs.recv"
	spanBSPhase      = "sim.bs.phase"
	spanSBSHandle    = "sim.sbs.handle"
	spanCheckpointSv = "model.ckpt.save"
)

// noParent marks a root span.
const noParent = -1

// Span is one timed call. Start and End are nanoseconds since the tracer's
// epoch; Parent is the index of the enclosing span or noParent; Run ties
// every span of one DUA run together.
type Span struct {
	Run    int
	Parent int
	Name   string
	Start  int64
	End    int64
}

// tracer keeps spans in memory until the benchmark ends. It is safe for
// concurrent use: the BS and SBS agents of the private-tcp workload record
// spans from their own goroutines.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	run   int
	spans []Span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]Span, 0, 1<<16)}
}

// beginRun opens the root span of a new run id and returns its index.
func (t *tracer) beginRun() int {
	t.mu.Lock()
	t.run++
	t.mu.Unlock()
	return t.begin(spanRun, noParent)
}

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Run: t.run, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// runSpans returns a copy of the spans of the run rooted at root (the
// indices stay valid because spans of one run are appended after its root).
func (t *tracer) runSpans(root int) (spans []Span, offset int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	run := t.spans[root].Run
	end := root
	for end < len(t.spans) && t.spans[end].Run == run {
		end++
	}
	return append([]Span(nil), t.spans[root:end]...), root
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals. offset is
// the index of spans[0] in the tracer, which Parent values refer to.
func selfTimes(spans []Span, offset int) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if p := s.Parent - offset; s.Parent != noParent && p >= 0 && p < len(spans) {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(parent Span, spans []Span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
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

// layerTimes sums self time (seconds) and counts spans per name.
func layerTimes(spans []Span, offset int) (secs map[string]float64, count map[string]int, durs map[string][]float64) {
	self := selfTimes(spans, offset)
	secs, count, durs = map[string]float64{}, map[string]int{}, map[string][]float64{}
	for i, s := range spans {
		secs[s.Name] += float64(self[i]) / 1e9
		count[s.Name]++
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e9)
	}
	return secs, count, durs
}

// writeSpans writes every recorded span, with its self time, as JSON lines.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans, 0)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := struct {
			ID     int    `json:"id"`
			Run    int    `json:"run"`
			Parent int    `json:"parent"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Self   int64  `json:"self_ns"`
		}{i, s.Run, s.Parent, s.Name, s.Start, s.End, self[i]}
		if err := enc.Encode(rec); err != nil {
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

// tracedEndpoint wraps a transport.Endpoint with spans. On the BS side it
// also opens one sim.bs.phase span per announced (sweep, phase), closed
// when the matching upload is received: the phase round-trip time. On an
// SBS side it opens a sim.sbs.handle span from the received announce to the
// upload send: the SBS's busy time (decode, solve, LPPM, encode).
type tracedEndpoint struct {
	inner transport.Endpoint
	tr    *tracer
	root  int
	bs    bool

	mu       sync.Mutex
	phase    int // open BS phase span or noParent
	phaseKey [2]int
	handle   int // open SBS handle span or noParent
}

func newTracedEndpoint(inner transport.Endpoint, tr *tracer, root int, bs bool) *tracedEndpoint {
	return &tracedEndpoint{inner: inner, tr: tr, root: root, bs: bs, phase: noParent, handle: noParent}
}

func (e *tracedEndpoint) Name() string { return e.inner.Name() }
func (e *tracedEndpoint) Close() error { return e.inner.Close() }

func (e *tracedEndpoint) Send(ctx context.Context, to string, m transport.Message) error {
	parent := e.root
	e.mu.Lock()
	switch {
	case e.bs && m.Type == transport.MsgPhaseStart:
		key := [2]int{m.Sweep, m.Phase}
		if e.phase == noParent || e.phaseKey != key {
			e.phase, e.phaseKey = e.tr.begin(spanBSPhase, e.root), key
		}
		parent = e.phase
	case !e.bs && m.Type == transport.MsgPolicyUpload && e.handle != noParent:
		e.tr.end(e.handle)
		e.handle = noParent
	}
	e.mu.Unlock()
	if err := e.recode(m, parent); err != nil {
		return err
	}
	s := e.tr.begin(spanSend, parent)
	err := e.inner.Send(ctx, to, m)
	e.tr.end(s)
	return err
}

func (e *tracedEndpoint) Recv(ctx context.Context) (transport.Message, error) {
	if !e.bs {
		m, err := e.inner.Recv(ctx)
		if err == nil && m.Type == transport.MsgPhaseStart {
			e.mu.Lock()
			if e.handle == noParent {
				e.handle = e.tr.begin(spanSBSHandle, e.root)
			}
			e.mu.Unlock()
		}
		return m, err
	}
	e.mu.Lock()
	parent := e.root
	if e.phase != noParent {
		parent = e.phase
	}
	e.mu.Unlock()
	s := e.tr.begin(spanBSRecv, parent)
	m, err := e.inner.Recv(ctx)
	e.tr.end(s)
	if err == nil && m.Type == transport.MsgPolicyUpload {
		e.mu.Lock()
		if e.phase != noParent && e.phaseKey == [2]int{m.Sweep, m.Phase} {
			e.tr.end(e.phase)
			e.phase = noParent
		}
		e.mu.Unlock()
	}
	return m, err
}

// recode times the payload codec on the exact bytes being sent: one decode
// into the message's body type and one encode back, the work the receiver
// and the sender of this message each do once. The agents call the codec
// internally, so this is the benchmark's own call of the same functions.
func (e *tracedEndpoint) recode(m transport.Message, parent int) error {
	var body any
	switch m.Type {
	case transport.MsgPhaseStart:
		body = &transport.AggregateAnnounce{}
	case transport.MsgPolicyUpload:
		body = &transport.PolicyUpload{}
	default:
		return nil
	}
	s := e.tr.begin(spanCodec, parent)
	defer e.tr.end(s)
	if err := transport.DecodePayload(m.Payload, body); err != nil {
		return fmt.Errorf("duabench: recode %v: %w", m.Type, err)
	}
	_, err := transport.EncodePayload(body)
	return err
}

// tracedSink wraps the BS's checkpoint sink with a span per Save and
// records each snapshot's encoded size (measured outside the span).
type tracedSink struct {
	inner model.CheckpointSink
	tr    *tracer
	root  int
	bytes int64
}

func (s *tracedSink) Save(ck *model.Checkpoint) error {
	data, err := ck.MarshalBinary()
	if err != nil {
		return err
	}
	s.bytes += int64(len(data))
	id := s.tr.begin(spanCheckpointSv, s.root)
	err = s.inner.Save(ck)
	s.tr.end(id)
	return err
}
