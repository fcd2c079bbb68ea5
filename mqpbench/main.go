// Command mqpbench is the repository's benchmark: it drives one seeded
// workload of mutant query plans with closed-loop clients, checks every
// answer against the centralized oracle (chaos.Oracle), and prints the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a traced
// window. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Workloads (see README.md): tcp-chain, sim-scatter, sim-repeat. Run it
// through run.sh, which builds it and cmd/mqpd first:
//
//	bash mqpbench/run.sh --workload sim-scatter --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// deadline bounds a whole run; the harness must exit within 180 s.
const deadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were added, for the report.
type metricSet struct {
	names []string
	m     map[string]metric
}

func (s *metricSet) add(name string, v float64, unit string) {
	if s.m == nil {
		s.m = map[string]metric{}
	}
	if _, dup := s.m[name]; !dup {
		s.names = append(s.names, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s.m[name] = metric{v, unit}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// failReasons counts the failed operations by reason.
	failReasons map[string]int
}

// machine describes where a result was measured.
type machine struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

func describe(workload string, seed int64, seconds, trace int) machine {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return machine{workload, seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), cpu}
}

func main() {
	workload := flag.String("workload", "", "tcp-chain, sim-scatter or sim-repeat")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced window")
	mqpd := flag.String("mqpd", "", "mqpd binary (tcp-chain)")
	work := flag.String("work", ".bench_build", "directory for logs and span files")
	flag.Parse()

	stopping := make(chan os.Signal, 1)
	signal.Notify(stopping, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-stopping:
		case <-time.After(deadline):
			fmt.Fprintf(os.Stderr, "mqpbench: run exceeded %v\n", deadline)
		}
		children.stopAll()
		os.Exit(3)
	}()

	res, err := run(*workload, *seed, *seconds, *trace, *mqpd, *work)
	children.stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mqpbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mqpbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(2)
	}
}

// run measures one workload; trace 1 asks for the per-layer metrics.
func run(name string, seed int64, seconds, trace int, mqpd, work string) (*result, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	desc := describe(name, seed, seconds, trace)
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		desc.Workload, desc.Seed, desc.Seconds, desc.Trace, desc.NProc, desc.GOMAXPROCS, desc.GoVersion, desc.CPU)

	tr := newTracer()
	var w world
	var err error
	// Inputs and oracle answers come first, outside set-up and timing.
	switch name {
	case "tcp-chain":
		w, err = newTCPChain(seed, mqpd, work, tr)
	case "sim-scatter":
		w, err = newScatter(seed, tr)
	case "sim-repeat":
		w, err = newRepeat(seed, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q (want tcp-chain, sim-scatter or sim-repeat)", name)
	}
	if err != nil {
		return nil, err
	}
	defer w.close()

	// Half the set-ups run before the window and half after it, so that
	// the median spans the run rather than one moment of a shared machine.
	setups, err := timeSetups(w, setupReps/2+1, false)
	if err != nil {
		return nil, err
	}
	setupS := quantile(append([]float64(nil), setups...), 0.5)
	if err := w.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC() // the discarded worlds' garbage stays out of the window

	var next atomic.Int64
	dur := time.Duration(seconds) * time.Second
	if trace != 1 {
		ws, err := runWindow(w, dur, &next)
		if err != nil {
			return nil, err
		}
		after, err := timeSetups(w, setupReps/2, true)
		if err != nil {
			return nil, err
		}
		all := append(setups, after...)
		fmt.Printf("# set-ups (ms):%s\n", fmtMS(all))
		m := endToEnd(ws, quantile(all, 0.5))
		report("", ws, m)
		return &result{Correct: ws.correct(), Attempted: ws.attempted, Failed: ws.failed,
			Metrics: m.m, failReasons: ws.failReasons}, nil
	}

	// Traced run: an untraced half, then a traced half on the same world;
	// the difference between them is the tracing overhead.
	plain, err := runWindow(w, dur/2, &next)
	if err != nil {
		return nil, err
	}
	untraced := endToEnd(plain, setupS)
	report("untraced ", plain, untraced)
	w.mark()
	tr.on.Store(true)
	ws, err := runWindow(w, dur/2, &next)
	if err != nil {
		return nil, err
	}
	e2e := endToEnd(ws, setupS)
	report("traced ", ws, e2e)

	m := &metricSet{}
	if err := w.layers(m, tr, ws); err != nil {
		return nil, err
	}
	if err := w.probe(tr); err != nil {
		return nil, err
	}
	tr.on.Store(false)
	spans, bodies := tr.snapshot()
	self := selfTimes(spans)
	sub, _ := meanSelfUS(spans, self, "client.submit")
	m.add("client.submit_us", sub, "us")
	m.add("client.result_us", meanDurUS(spans, "client.result"), "us")
	m.add("wire.submit_kb", tr.meanSizeKB("submit"), "KiB")
	m.add("wire.result_kb", tr.meanSizeKB("result"), "KiB")
	m.add("route.partial_frac", ratio(float64(ws.partials), float64(ws.plans)), "frac")
	m.add("peer.admission_rejects", float64(ws.admission), "count")
	pub, reg := publishTimes(spans)
	m.add("publish.p50_us", pub, "us")
	m.add("publish.register_us", reg, "us")
	if err := codecReplay(bodies, m); err != nil {
		return nil, err
	}
	// Peak memory over the whole run. It is a per-layer figure, not an
	// end-to-end one: pooled decoders keep every document they decoded
	// reachable, so the peak grows with the run and varies widely between
	// identical runs (see README.md).
	m.add("heap_live_mb", math.Max(plain.peakHeap, ws.peakHeap)/(1<<20), "MB")
	m.add("server_rss_mb", math.Max(plain.peakRSS, ws.peakRSS)/(1<<20), "MB")
	m.add("trace.overhead_p50_frac", ratio(e2e.m["plan_p50_ms"].Value, untraced.m["plan_p50_ms"].Value)-1, "frac")
	m.add("trace.overhead_tput_frac", 1-ratio(e2e.m["plans_per_s"].Value, untraced.m["plans_per_s"].Value), "frac")
	report("layer ", nil, m)

	path := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d-%d.jsonl", name, seed, os.Getpid()))
	if err := writeSpans(path, map[string]any{"machine": desc, "end_to_end": e2e.m, "per_layer": m.m}, spans); err != nil {
		return nil, err
	}
	fmt.Printf("# %d spans written to %s\n", len(spans), path)
	plain.merge(ws)
	return &result{
		Correct:     plain.correct(),
		Attempted:   plain.attempted,
		Failed:      plain.failed,
		Metrics:     m.m,
		failReasons: plain.failReasons,
	}, nil
}

// timeSetups builds the world n times and returns each build's seconds;
// the last world built stays up. Tearing the previous world down and
// collecting the garbage it left are not part of a set-up.
func timeSetups(w world, n int, built bool) ([]float64, error) {
	secs := make([]float64, n)
	for i := range secs {
		if built || i > 0 {
			w.close()
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		secs[i] = time.Since(t0).Seconds()
	}
	return secs, nil
}

// endToEnd derives the end-to-end metrics of one window: throughput and
// CPU per plan are whole-window figures, the forced collections included;
// the latency percentiles are taken over every plan of the window.
func endToEnd(ws *windowStats, setupS float64) *metricSet {
	m := &metricSet{}
	m.add("plans_per_s", float64(ws.plans)/ws.elapsed.Seconds(), "1/s")
	m.add("plan_p50_ms", quantile(append([]float64(nil), ws.lats...), 0.5), "ms")
	m.add("plan_p99_ms", quantile(append([]float64(nil), ws.lats...), 0.99), "ms")
	m.add("cpu_ms_per_plan", ratio(ws.use.cpuMS, float64(ws.plans)), "ms")
	m.add("bytes_per_plan", ratio(ws.use.netBytes, float64(ws.plans)), "B")
	m.add("setup_s", setupS, "s")
	return m
}

// report prints a window's counts and metrics for people; the JSON line
// that follows is for machines.
func report(prefix string, ws *windowStats, m *metricSet) {
	if ws != nil {
		var reasons []string
		for r, n := range ws.failReasons {
			reasons = append(reasons, fmt.Sprintf("%s=%d", r, n))
		}
		sort.Strings(reasons)
		fmt.Printf("# %swindow %.2fs: attempted=%d plans=%d publishes=%d failed=%d fail_frac=%.6f partials=%d latency_samples=%d publish_p50_ms=%.4f heap_live_mb=%.1f server_rss_mb=%.1f %s\n",
			prefix, ws.elapsed.Seconds(), ws.attempted, ws.plans, ws.publishes, ws.failed,
			ratio(float64(ws.failed), float64(ws.attempted)), ws.partials, len(ws.lats),
			quantile(append([]float64(nil), ws.publishLats...), 0.5), ws.peakHeap/(1<<20), ws.peakRSS/(1<<20),
			strings.Join(reasons, " "))
	}
	for _, n := range m.names {
		fmt.Printf("# %s%-34s %14.6f %s\n", prefix, n, m.m[n].Value, m.m[n].Unit)
	}
}

// fmtMS formats seconds as a list of milliseconds.
func fmtMS(secs []float64) string {
	var b strings.Builder
	for _, s := range secs {
		fmt.Fprintf(&b, " %.2f", s*1e3)
	}
	return b.String()
}

func meanDurUS(spans []span, name string) float64 {
	var sum float64
	n := 0
	for _, s := range spans {
		if s.Name == name {
			sum += float64(s.End - s.Start)
			n++
		}
	}
	return ratio(sum, float64(n)) / 1e3
}

// publishTimes returns the median whole publish (set-items plus register,
// per trace) and the mean register part, in microseconds.
func publishTimes(spans []span) (p50, register float64) {
	total := map[string]float64{}
	var regs []float64
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e3
		switch s.Name {
		case "publish.setitems":
			total[s.Trace] += d
		case "publish.register":
			total[s.Trace] += d
			regs = append(regs, d)
		}
	}
	var all []float64
	for _, v := range total {
		all = append(all, v)
	}
	return quantile(all, 0.5), mean(regs)
}
