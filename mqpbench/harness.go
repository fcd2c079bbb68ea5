package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xmltree"
)

// clients is the number of closed-loop callers: each submits a plan, waits
// for its result, and only then submits the next, as mqpquery does.
const clients = 2

// setupReps is how many times a run builds its world; setup_s is the
// median.
const setupReps = 101

// planTimeout fails a plan whose result has not arrived by then.
const planTimeout = 5 * time.Second

// opResult is the outcome of one closed-loop operation.
type opResult struct {
	publish bool
	lat     time.Duration
	// fail is empty on success, else why the operation failed: "submit",
	// "timeout", "stuck", "mismatch", "partial" (a partial result the oracle
	// shows incomplete), countEmptyArea or "publish".
	fail      string
	partial   bool
	admission bool
}

// usage holds cumulative counters; a window reports their difference.
type usage struct {
	cpuMS    float64 // user+system CPU of every process in the run
	netBytes float64 // wire bytes
	msgs     float64 // messages or frames sent
	hops     float64 // links crossed by plans
}

func (u usage) sub(o usage) usage {
	return usage{u.cpuMS - o.cpuMS, u.netBytes - o.netBytes, u.msgs - o.msgs, u.hops - o.hops}
}

func (u usage) add(o usage) usage {
	return usage{u.cpuMS + o.cpuMS, u.netBytes + o.netBytes, u.msgs + o.msgs, u.hops + o.hops}
}

// world is one workload: its seeded inputs and oracle answers, and the
// peers it builds and drives.
type world interface {
	// setup builds the peers, until they serve; the harness times it.
	setup() error
	// warm runs operations until caches and links are warm, untimed.
	warm() error
	// op runs operation k on behalf of client c.
	op(c int, k int64) opResult
	usage() (usage, error)
	// mem samples the peer world's live heap and resident set, in bytes.
	mem() (heap, rss float64)
	// mark snapshots the counters layers reports differences of.
	mark()
	// layers adds the workload's own per-layer metrics for a traced window.
	layers(m *metricSet, tr *tracer, ws *windowStats) error
	// probe runs after a traced window: work the window itself must not
	// contain, such as publishes on a read-only workload.
	probe(tr *tracer) error
	close()
}

// epochLen is the length of the epochs a window is run in. The program's
// pooled XML decoders keep every document they decoded reachable until the
// pool drops them, so under sustained load the heap grows without bound
// (see README.md). Each epoch therefore begins with two full garbage
// collections, which let the pool drop its decoders; their wall and CPU
// time count against the epoch like any other work. Within an epoch the
// growth shows in full.
const epochLen = time.Second

// windowStats is what one timed window measured.
type windowStats struct {
	elapsed     time.Duration
	attempted   int
	failed      int
	failReasons map[string]int
	plans       int // completed, oracle-correct plans
	partials    int
	admission   int
	lats        []float64 // plan latency, ms
	publishes   int
	publishLats []float64 // ms
	use         usage
	peakHeap    float64
	peakRSS     float64
}

// runWindow drives the closed loop for dur, in epochs, and returns what it
// measured. next hands out operation indexes, so the sequence of operations
// is the same whatever the run length; only how far into it a run gets
// varies.
func runWindow(w world, dur time.Duration, next *atomic.Int64) (*windowStats, error) {
	total := &windowStats{failReasons: map[string]int{}}
	for left := dur; left > 0; left -= epochLen {
		ws, err := runEpoch(w, min(left, epochLen), next)
		if err != nil {
			return nil, err
		}
		total.merge(ws)
	}
	return total, nil
}

// correct reports whether every operation of the window succeeded.
func (ws *windowStats) correct() bool { return ws.failed == 0 }

func (t *windowStats) merge(ws *windowStats) {
	t.elapsed += ws.elapsed
	t.attempted += ws.attempted
	t.failed += ws.failed
	for r, n := range ws.failReasons {
		t.failReasons[r] += n
	}
	t.plans += ws.plans
	t.partials += ws.partials
	t.admission += ws.admission
	t.lats = append(t.lats, ws.lats...)
	t.publishes += ws.publishes
	t.publishLats = append(t.publishLats, ws.publishLats...)
	t.use = t.use.add(ws.use)
	t.peakHeap = math.Max(t.peakHeap, ws.peakHeap)
	t.peakRSS = math.Max(t.peakRSS, ws.peakRSS)
}

// runEpoch collects garbage twice, then drives the closed loop until dur
// has passed since the collections began.
func runEpoch(w world, dur time.Duration, next *atomic.Int64) (*windowStats, error) {
	before, err := w.usage()
	if err != nil {
		return nil, err
	}
	ws := &windowStats{failReasons: map[string]int{}}
	start := time.Now()
	deadline := start.Add(dur)
	runtime.GC()
	runtime.GC()

	// The sampler records peak memory every 20 ms.
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			h, r := w.mem()
			ws.peakHeap = math.Max(ws.peakHeap, h)
			ws.peakRSS = math.Max(ws.peakRSS, r)
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()

	per := make([][]opResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]opResult, 0, 1<<12)
			for time.Now().Before(deadline) {
				out = append(out, w.op(c, next.Add(1)-1))
			}
			per[c] = out
		}(c)
	}
	wg.Wait()
	ws.elapsed = time.Since(start)
	close(stop)
	sampler.Wait()
	after, err := w.usage()
	if err != nil {
		return nil, err
	}
	ws.use = after.sub(before)
	for _, rs := range per {
		for _, r := range rs {
			ws.attempted++
			if r.fail != "" {
				ws.failed++
				ws.failReasons[r.fail]++
				continue
			}
			ms := float64(r.lat) / 1e6
			if r.publish {
				ws.publishes++
				ws.publishLats = append(ws.publishLats, ms)
				continue
			}
			ws.plans++
			ws.lats = append(ws.lats, ms)
			if r.partial {
				ws.partials++
			}
			if r.admission {
				ws.admission++
			}
		}
	}
	return ws, nil
}

// quantile returns the q-quantile (nearest rank) of xs; xs is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// liveHeap reads the live heap as of the last GC from runtime/metrics.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// settledHeap collects garbage and returns the live heap left.
func settledHeap() float64 {
	runtime.GC()
	return liveHeap()
}

// digest is an order-insensitive summary of a result multiset: the item
// count and the wrapping sum of the items' canonical-XML hashes. Two answers
// with the same digest are, up to a 64-bit hash collision, the same
// multiset; it is what the oracle's answers are stored as, so checking a
// result inside the timed window costs one hash per item.
type digest struct {
	n   int
	sum uint64
}

func digestOf(items []*xmltree.Node) digest {
	d := digest{n: len(items)}
	for _, it := range items {
		h := fnv.New64a()
		h.Write([]byte(it.String()))
		d.sum += h.Sum64()
	}
	return d
}

func (d digest) String() string { return fmt.Sprintf("%d items/%016x", d.n, d.sum) }

// mix derives the seed of operation k from the run seed, so an operation's
// inputs depend on (seed, k) alone.
func mix(seed, k int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x >> 1)
}
