package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xmltree"
)

// span is one timed call the benchmark made into a layer. Spans of one plan
// share its trace id (the plan id); hop is the number of links the plan had
// crossed when the call began (0 for the client's submit), so the span a
// call caused is the one at hop+1.
type span struct {
	Trace string `json:"trace"`
	Hop   int    `json:"hop"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// maxCaptured bounds the hop bodies kept for the codec replay.
const maxCaptured = 512

// tracer keeps spans in memory while on; they are written out after the run.
// With tracing off, record and capture return at once and now is the only
// cost a decorated call pays.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	seen     int
	captured []string
	sizes    map[string][2]float64 // name -> (sum of bytes, count)
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(trace string, hop int, name string, start, end int64) {
	if !t.on.Load() {
		return
	}
	// A plan id read from a decoded document aliases that document's
	// whole serialization; the span keeps a copy.
	trace = strings.Clone(trace)
	t.mu.Lock()
	t.spans = append(t.spans, span{Trace: trace, Hop: hop, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// capture keeps the serialization of every 8th plan or result body seen on
// a hop, up to maxCaptured, for the codec replay. It keeps a copy, not the
// node: a decoded node shares its decoder's node chunks with the documents
// decoded before it and would keep all of them reachable.
func (t *tracer) capture(body *xmltree.Node) {
	if !t.on.Load() || body == nil {
		return
	}
	t.mu.Lock()
	t.seen++
	keep := t.seen%8 == 1 && len(t.captured) < maxCaptured
	t.mu.Unlock()
	if !keep {
		return
	}
	s := strings.Clone(body.String())
	t.mu.Lock()
	t.captured = append(t.captured, s)
	t.mu.Unlock()
}

// size adds one message size to the named mean.
func (t *tracer) size(name string, bytes int) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	if t.sizes == nil {
		t.sizes = map[string][2]float64{}
	}
	s := t.sizes[name]
	t.sizes[name] = [2]float64{s[0] + float64(bytes), s[1] + 1}
	t.mu.Unlock()
}

// meanSizeKB returns the mean of the named sizes in KiB.
func (t *tracer) meanSizeKB(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.sizes[name]
	if s[1] == 0 {
		return 0
	}
	return s[0] / s[1] / 1024
}

func (t *tracer) snapshot() ([]span, []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]string(nil), t.captured...)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval covered by its children: the spans of the same trace at the next
// hop that lie inside it. On an inline network the next peer's Deliver runs
// inside the sender's, so this is the time the sender spent on its own step.
func selfTimes(spans []span) []int64 {
	byTrace := map[string][]int{}
	for i, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], i)
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	for _, idx := range byTrace {
		for _, i := range idx {
			p := spans[i]
			var kids []iv
			for _, j := range idx {
				c := spans[j]
				if c.Hop == p.Hop+1 && c.Start >= p.Start && c.End <= p.End {
					kids = append(kids, iv{c.Start, c.End})
				}
			}
			sort.Slice(kids, func(a, b int) bool { return kids[a].a < kids[b].a })
			covered, reach := int64(0), p.Start
			for _, k := range kids {
				if k.a < reach {
					k.a = reach
				}
				if k.b > k.a {
					covered += k.b - k.a
					reach = k.b
				}
			}
			self[i] = p.End - p.Start - covered
		}
	}
	return self
}

// meanSelfUS averages the self time, in microseconds, of the spans named
// name; ok is false when there are none.
func meanSelfUS(spans []span, self []int64, name string) (float64, bool) {
	var sum int64
	n := 0
	for i, s := range spans {
		if s.Name == name {
			sum += self[i]
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return float64(sum) / float64(n) / 1e3, true
}

// writeSpans writes the spans, one JSON object per line, after the header.
func writeSpans(path string, header any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(header)
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
