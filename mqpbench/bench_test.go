package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/xmltree"
)

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses; utime and stime
	// are fields 14 and 15.
	stat := []byte("4242 (mqpd (x) y) S 1 4242 4242 0 -1 4194560 500 0 0 0 250 37 0 0 20 0 5 0 100 0 0\n")
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 287 {
		t.Fatalf("parseStatCPU = %d, want 287", got)
	}
	if _, err := parseStatCPU([]byte("4242 (mqpd) S 1 2")); err == nil {
		t.Fatal("short stat line parsed")
	}
	if _, err := parseStatCPU([]byte("no name here")); err == nil {
		t.Fatal("stat line without a command name parsed")
	}
}

func TestParseField(t *testing.T) {
	status := []byte("Name:\tmqpd\nVmHWM:\t   18432 kB\nVmRSS:\t   17000 kB\nRssAnon:\t    9000 kB\n")
	for key, want := range map[string]int64{"VmHWM": 18432, "VmRSS": 17000, "RssAnon": 9000} {
		got, err := parseField(status, key)
		if err != nil || got != want {
			t.Fatalf("parseField(%s) = %d, %v; want %d", key, got, err, want)
		}
	}
	io := []byte("rchar: 123456\nwchar: 789\nsyscr: 12\n")
	if got, err := parseField(io, "rchar"); err != nil || got != 123456 {
		t.Fatalf("parseField(rchar) = %d, %v", got, err)
	}
	if _, err := parseField(io, "VmHWM"); err == nil {
		t.Fatal("missing field parsed")
	}
	// The real files parse too.
	if _, err := cpuMS("self"); err != nil {
		t.Fatal(err)
	}
	if _, err := procField("self", "status", "VmRSS"); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// An inline chain: submit -> meta -> seller -> client result.
		{Trace: "p", Hop: 0, Name: "client.submit", Start: 0, End: 100},
		{Trace: "p", Hop: 1, Name: "deliver.catalog", Start: 10, End: 90},
		{Trace: "p", Hop: 2, Name: "deliver.base", Start: 20, End: 50},
		// A second child of the meta hop, overlapping the first: the
		// covered part is counted once.
		{Trace: "p", Hop: 2, Name: "deliver.base", Start: 40, End: 70},
		{Trace: "p", Hop: 3, Name: "client.result", Start: 60, End: 65},
		// The next hop of a worker-pool peer runs after its Deliver
		// returned: it is not nested, so nothing is subtracted.
		{Trace: "q", Hop: 1, Name: "deliver.catalog", Start: 0, End: 5},
		{Trace: "q", Hop: 2, Name: "deliver.base", Start: 6, End: 20},
		// Another trace's span inside the interval is not a child.
		{Trace: "r", Hop: 2, Name: "deliver.base", Start: 11, End: 12},
	}
	got := selfTimes(spans)
	want := []int64{100 - 80, 80 - 50, 30, 30 - 5, 5, 5, 14, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	if us, ok := meanSelfUS(spans, got, "deliver.base"); !ok || us != float64(30+25+14+1)/4/1e3 {
		t.Fatalf("meanSelfUS = %v, %v", us, ok)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Fatalf("p99 = %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) (e2e, layer map[string]string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	units := map[string]string{}
	for name, m := range got {
		units[name] = m.Unit
	}
	if !reflect.DeepEqual(units, want) {
		var g, w []string
		for n, u := range units {
			g = append(g, n+" "+u)
		}
		for n, u := range want {
			w = append(w, n+" "+u)
		}
		sort.Strings(g)
		sort.Strings(w)
		t.Fatalf("metrics do not match BENCHMARK.json:\n got  %v\n want %v", g, w)
	}
}

// TestWorkloads runs each workload briefly, traced, and checks that every
// answer agrees with the oracle, that no plan failed, and that the metrics
// printed are exactly those BENCHMARK.json lists.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layer := loadSpec(t)
	work := t.TempDir()
	mqpd := filepath.Join(work, "mqpd")
	build := exec.Command("go", "build", "-o", mqpd, "repro/cmd/mqpd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build mqpd: %v", err)
	}
	defer children.stopAll()

	for _, name := range []string{"tcp-chain", "sim-scatter", "sim-repeat"} {
		t.Run(name, func(t *testing.T) {
			res, err := run(name, 7, 2, 1, mqpd, work)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d", res.Correct, res.Attempted)
			}
			if res.Failed != 0 {
				t.Fatalf("failures: %v", res.failReasons)
			}
			checkMetrics(t, res.Metrics, layer)
			// The plans kept out of the load for the known defect
			// (README.md) are probed; while it stands they all fail.
			if got, want := res.Metrics["oracle.count_empty_area_frac"].Value, map[string]float64{"sim-scatter": 1}[name]; got != want {
				t.Errorf("oracle.count_empty_area_frac = %v, want %v", got, want)
			}
		})
	}
	t.Run("untraced", func(t *testing.T) {
		res, err := run("sim-repeat", 7, 1, 0, mqpd, work)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("correct=%v failures=%v", res.Correct, res.failReasons)
		}
		checkMetrics(t, res.Metrics, e2e)
	})
	if err := exec.Command("pgrep", "-f", mqpd).Run(); err == nil {
		t.Fatal("an mqpd process outlived its run")
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run("nope", 1, 1, 0, "", t.TempDir()); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestCheckFailureReasons pins how results are classified: only a count
// plan's empty partial against the oracle's zero count is the known defect;
// any other incomplete partial fails as "partial". Any failure fails the
// window.
func TestCheckFailureReasons(t *testing.T) {
	item := xmltree.MustParse("<item><price>3</price></item>")
	zero := []*xmltree.Node{xmltree.ElemText("count", "0")}
	for _, c := range []struct {
		got     []*xmltree.Node
		partial bool
		want    []*xmltree.Node
		fail    string
	}{
		{nil, true, zero, countEmptyArea},
		{nil, true, nil, ""}, // an empty area's empty select is complete
		{nil, true, []*xmltree.Node{item}, "partial"},
		{nil, true, []*xmltree.Node{xmltree.ElemText("count", "2")}, "partial"},
		{nil, false, zero, "mismatch"},
		{[]*xmltree.Node{item}, true, nil, "mismatch"},
		{[]*xmltree.Node{item}, false, []*xmltree.Node{item}, ""},
	} {
		d := delivered{partial: c.partial, items: c.got}
		r := check("p", d, query{want: digestOf(c.want), items: c.want}, 0)
		if r.fail != c.fail {
			t.Errorf("got %d items (partial %v) against %d: fail %q, want %q",
				len(c.got), c.partial, len(c.want), r.fail, c.fail)
		}
	}
	if ws := (&windowStats{}); !ws.correct() {
		t.Fatal("a window without failures is not correct")
	}
	ws := &windowStats{failed: 1, failReasons: map[string]int{countEmptyArea: 1}}
	if ws.correct() {
		t.Fatal("a window failing by the known defect is correct")
	}
}
