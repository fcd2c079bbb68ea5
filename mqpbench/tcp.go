package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/chaos"
	"repro/internal/hierarchy"
	"repro/internal/namespace"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

const (
	forSaleURN = "urn:ForSale:Portland-CDs"
	tracksURN  = "urn:CD:TrackListings"
)

// tcpParams are the seeded inputs of one Fig. 3 plan.
type tcpParams struct {
	maxPrice  int
	favorites []*xmltree.Node
}

// tcpChain runs the paper's Fig. 3 query through four mqpd processes on
// loopback: a meta server aliasing the for-sale URN to two CD sellers and
// the track-listing URN to a track server, the three servers themselves,
// and an in-process client that submits over a wire.LinkPool link and
// receives results on a wire.Listen listener, as mqpquery does.
type tcpChain struct {
	seed    int64
	mqpd    string
	dir     string // collection files and server logs
	files   [3]string
	params  []tcpParams
	want    []query
	tr      *tracer
	clientB atomic.Int64 // result bytes the client read

	// Rebuilt by each setup.
	procs    []*server
	meta     string
	pool     *wire.LinkPool
	srv      *wire.Server
	waiting  sync.Map     // plan id -> chan delivered
	plans    atomic.Int64 // plans submitted to this set of servers
	warmNext atomic.Int64
	markRole map[string]float64
}

// server is one mqpd child process.
type server struct {
	role    string // meta, seller or tracks
	addr    string
	cmd     *exec.Cmd
	errPath string
	done    chan struct{} // closed once the process has been reaped
}

func newTCPChain(seed int64, mqpd, work string, tr *tracer) (*tcpChain, error) {
	if mqpd == "" {
		return nil, fmt.Errorf("tcp-chain needs -mqpd")
	}
	dir := filepath.Join(work, fmt.Sprintf("tcp-chain-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &tcpChain{seed: seed, mqpd: mqpd, dir: dir, tr: tr}
	sales, listings := workload.CDCatalog(mix(worldSeed, 5), 40)
	halves := [2][]*xmltree.Node{}
	for i, s := range sales {
		halves[i%2] = append(halves[i%2], s)
	}
	for i, items := range [][]*xmltree.Node{halves[0], halves[1], listings} {
		w.files[i] = filepath.Join(dir, fmt.Sprintf("coll%d.xml", i))
		if err := writeItems(w.files[i], items); err != nil {
			return nil, err
		}
	}

	// The oracle binds the for-sale URN through an area registration over
	// both sellers' collections; the track listings enter as constant data.
	ns := workload.GarageSaleNamespace()
	cds := namespace.NewArea(namespace.NewCell(hierarchy.MustParsePath("USA/OR/Portland"),
		hierarchy.MustParsePath("Music/CDs")))
	oracle, err := chaos.NewOracle(ns, []chaos.Collection{
		{PathExp: "/s0", Area: cds, Items: halves[0]},
		{PathExp: "/s1", Area: cds, Items: halves[1]},
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(mix(seed, 6)))
	w.params = make([]tcpParams, 1024)
	w.want = make([]query, len(w.params))
	for i := range w.params {
		p := tcpParams{maxPrice: 5 + rng.Intn(24)}
		for _, j := range rng.Perm(len(listings))[:2+rng.Intn(5)] {
			p.favorites = append(p.favorites, xmltree.MustParse(fmt.Sprintf(
				"<song><title>%s</title></song>", listings[j].Value("song"))))
		}
		w.params[i] = p
		items, err := oracle.Evaluate(fig3(p, "oracle", algebra.URN(namespace.EncodeURN(cds)),
			algebra.Data(listings...)))
		if err != nil {
			return nil, err
		}
		w.want[i] = query{want: digestOf(items), items: items}
	}
	return w, nil
}

func writeItems(path string, items []*xmltree.Node) error {
	var b strings.Builder
	b.WriteString("<items>")
	for _, it := range items {
		b.WriteString(it.String())
	}
	b.WriteString("</items>\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// fig3 builds the paper's Fig. 3 plan: favorite songs joined with the
// track listings of for-sale CDs under a price bound.
func fig3(p tcpParams, id string, forSale, tracks *algebra.Node) *algebra.Plan {
	sel := algebra.Select(algebra.MustParsePredicate(fmt.Sprintf("price < %d", p.maxPrice)), forSale)
	cdJoin := algebra.JoinNamed("cd", "cd", "sale", "listing", sel, tracks)
	songJoin := algebra.JoinNamed("title", "listing/song", "fav", "match", algebra.Data(p.favorites...), cdJoin)
	plan := algebra.NewPlan(id, "client", algebra.Display(songJoin))
	plan.RetainOriginal()
	return plan
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]string, error) {
	var addrs []string
	var lns []net.Listener
	defer func() {
		for _, l := range lns {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

func (w *tcpChain) setup() error {
	addrs, err := freePorts(4)
	if err != nil {
		return err
	}
	w.meta = addrs[0]
	specs := []struct {
		role string
		args []string
	}{
		{"meta", []string{
			"-alias", forSaleURN + "=http://" + addrs[1] + "/data",
			"-alias", forSaleURN + "=http://" + addrs[2] + "/data",
			"-alias", tracksURN + "=http://" + addrs[3] + "/data",
		}},
		{"seller", []string{"-collection", "/data=" + w.files[0]}},
		{"seller", []string{"-collection", "/data=" + w.files[1]}},
		{"tracks", []string{"-collection", "/data=" + w.files[2]}},
	}
	for i, s := range specs {
		p, err := w.start(s.role, addrs[i], s.args)
		if err != nil {
			return err
		}
		w.procs = append(w.procs, p)
	}
	if err := awaitListening(w.procs, 10*time.Second); err != nil {
		return err
	}
	w.pool = wire.NewLinkPool()
	w.srv, err = wire.Listen("127.0.0.1:0", w.accept)
	if err != nil {
		return err
	}
	w.plans.Store(0)
	return nil
}

func (w *tcpChain) warm() error { return warmUp(w, 256, &w.warmNext) }

// start launches one mqpd with its stderr in a file: a pipe nobody drains
// would block the server once its per-plan log lines filled the buffer.
func (w *tcpChain) start(role, addr string, args []string) (*server, error) {
	s := &server{role: role, addr: addr, done: make(chan struct{}),
		errPath: filepath.Join(w.dir, fmt.Sprintf("%s-%s.log", role, strings.ReplaceAll(addr, ":", "_")))}
	f, err := os.Create(s.errPath)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the child holds its own descriptor
	s.cmd = exec.Command(w.mqpd, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stdout, s.cmd.Stderr = f, f
	// The kernel kills the child if the benchmark dies without reaping it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := children.start(s); err != nil {
		return nil, err
	}
	return s, nil
}

// children tracks every mqpd the benchmark started, so that each exit
// path, a signal or the run deadline included, can kill and reap them.
var children = &childSet{live: map[*server]bool{}}

type childSet struct {
	mu   sync.Mutex
	live map[*server]bool
}

func (c *childSet) start(s *server) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := s.cmd.Start(); err != nil {
		return err
	}
	c.live[s] = true
	go func() {
		_ = s.cmd.Wait()
		close(s.done)
	}()
	return nil
}

// stop kills s and waits until it has been reaped.
func (c *childSet) stop(s *server) {
	c.mu.Lock()
	delete(c.live, s)
	c.mu.Unlock()
	_ = s.cmd.Process.Kill()
	<-s.done
}

// stopAll kills and reaps every child still running.
func (c *childSet) stopAll() {
	c.mu.Lock()
	var all []*server
	for s := range c.live {
		all = append(all, s)
	}
	c.mu.Unlock()
	for _, s := range all {
		c.stop(s)
	}
}

// awaitListening waits until every server has logged "listening on",
// which mqpd prints once its socket accepts connections. It polls the logs
// once a millisecond, all servers in each round.
func awaitListening(procs []*server, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	waiting := append([]*server(nil), procs...)
	for len(waiting) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("mqpd %s %s not listening after %v", waiting[0].role, waiting[0].addr, limit)
		}
		time.Sleep(time.Millisecond)
		left := waiting[:0]
		for _, s := range waiting {
			b, _ := os.ReadFile(s.errPath)
			if bytes.Contains(b, []byte("mqpd: listening on")) {
				continue
			}
			select {
			case <-s.done:
				return fmt.Errorf("mqpd %s %s exited during start-up: %s", s.role, s.addr, bytes.TrimSpace(b))
			default:
			}
			left = append(left, s)
		}
		waiting = left
	}
	return nil
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// accept is the client's listener handler: it decodes each result and
// hands it to the caller waiting for that plan.
func (w *tcpChain) accept(doc *xmltree.Node) (*xmltree.Node, error) {
	start := w.tr.now()
	size := doc.ByteSize()
	w.clientB.Add(int64(size) + 12) // frame header
	d := delivered{id: doc.AttrDefault("id", "")}
	plan, err := algebra.Unmarshal(doc)
	if err == nil {
		d.id, d.partial, d.reason = plan.ID, plan.PartialResult(), plan.PartialReason()
		d.items, d.err = plan.Results()
	} else {
		d.err = err
	}
	d.ready = w.tr.now()
	w.tr.record(d.id, 0, "client.result", start, d.ready)
	w.tr.capture(doc)
	w.tr.size("result", size)
	if ch, ok := w.waiting.Load(d.id); ok {
		select {
		case ch.(chan delivered) <- d:
		default:
		}
	}
	return nil, nil
}

func (w *tcpChain) op(c int, k int64) opResult {
	n := int64(len(w.params))
	i := ((k % n) + n) % n
	id := fmt.Sprintf("tcp-chain-%d-%d", w.seed, k)
	ch := make(chan delivered, 1)
	w.waiting.Store(id, ch)
	defer w.waiting.Delete(id)

	t0 := w.tr.now()
	plan := fig3(w.params[i], id, algebra.URN(forSaleURN), algebra.URN(tracksURN))
	plan.Target = w.srv.Addr()
	size := 0
	err := w.pool.SendFrame(w.meta, func(e *xmltree.FrameEncoder) {
		algebra.EncodeFrame(plan, e)
		size = e.Len()
	})
	w.tr.record(id, 0, "client.submit", t0, w.tr.now())
	w.plans.Add(1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mqpbench: plan %s: submit: %v\n", id, err)
		return opResult{fail: "submit"}
	}
	if w.tr.on.Load() {
		w.tr.size("submit", size+12)
		w.tr.capture(algebra.Marshal(plan))
	}
	d, ok := awaitResult(ch, id)
	if !ok {
		fmt.Fprintf(os.Stderr, "mqpbench: plan %s: no result within %v\n", id, planTimeout)
		return opResult{fail: "timeout"}
	}
	return check(id, d, w.want[i], t0)
}

// usage sums CPU and socket reads over the mqpd processes and the client.
// rchar counts every byte a server read through a syscall; mqpd reads only
// its sockets once started, so it is the bytes that crossed the servers'
// links, frame headers included.
func (w *tcpChain) usage() (usage, error) {
	cpu, err := cpuMS("self")
	if err != nil {
		return usage{}, err
	}
	u := usage{cpuMS: cpu, netBytes: float64(w.clientB.Load())}
	for _, p := range w.procs {
		c, err := cpuMS(p.pid())
		if err != nil {
			return usage{}, err
		}
		rc, err := procField(p.pid(), "io", "rchar")
		if err != nil {
			return usage{}, err
		}
		u.cpuMS += c
		u.netBytes += float64(rc)
	}
	return u, nil
}

// mem sums the servers' anonymous resident memory (their heap, as seen from
// outside) and their peak resident sets.
func (w *tcpChain) mem() (heap, rss float64) {
	for _, p := range w.procs {
		if kb, err := procField(p.pid(), "status", "RssAnon"); err == nil {
			heap += float64(kb) * 1024
		}
		if kb, err := procField(p.pid(), "status", "VmHWM"); err == nil {
			rss += float64(kb) * 1024
		}
	}
	return heap, rss
}

// roleCPU returns each role's CPU milliseconds so far.
func (w *tcpChain) roleCPU() (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range w.procs {
		c, err := cpuMS(p.pid())
		if err != nil {
			return nil, err
		}
		out[p.role] += c
	}
	return out, nil
}

// mark snapshots each role's CPU. A /proc read that fails here fails again
// in layers, which reports it.
func (w *tcpChain) mark() {
	w.markRole, _ = w.roleCPU()
}

// scanLogs counts each role's per-plan step lines and every error line in
// the servers' logs. Lines other than the start-up, registration and
// per-plan lines are errors: mqpd logs handler and link failures as
// "mqpd: <error>".
func (w *tcpChain) scanLogs() (steps map[string]float64, errLines []string, err error) {
	steps = map[string]float64{}
	for _, p := range w.procs {
		b, err := os.ReadFile(p.errPath)
		if err != nil {
			return nil, nil, err
		}
		for _, line := range strings.Split(string(b), "\n") {
			_, msg, ok := strings.Cut(line, "mqpd: ")
			switch {
			case line == "":
			case !ok:
				errLines = append(errLines, p.role+": "+line)
			case strings.HasPrefix(msg, "plan "):
				steps[p.role]++
			case strings.HasPrefix(msg, "serving "), strings.HasPrefix(msg, "listening on "),
				strings.HasPrefix(msg, "registered "):
			default:
				errLines = append(errLines, p.role+": "+line)
			}
		}
	}
	return steps, errLines, nil
}

func (w *tcpChain) layers(m *metricSet, tr *tracer, ws *windowStats) error {
	cpu, err := w.roleCPU()
	if err != nil {
		return err
	}
	steps, errLines, err := w.scanLogs()
	if err != nil {
		return err
	}
	lifetime := float64(w.plans.Load())
	perPlan := func(role string) float64 { return steps[role] / lifetime }
	// Hop self time from outside a process is its CPU per step: decode,
	// processor step, re-encode and socket write.
	hopUS := func(roles ...string) float64 {
		var ms, n float64
		for _, r := range roles {
			ms += cpu[r] - w.markRole[r]
			n += perPlan(r) * float64(ws.plans)
		}
		return ratio(ms*1e3, n)
	}
	m.add("hop.self_us.catalog", hopUS("meta"), "us")
	m.add("hop.self_us.base", hopUS("seller", "tracks"), "us")
	hops := perPlan("meta") + perPlan("seller") + perPlan("tracks") + 1
	m.add("route.hops_per_plan", hops, "count")
	m.add("net.msgs_per_plan", hops, "count")
	// The catalog, plan-cache, shortcut and blob counters live inside the
	// mqpd processes, which export none of them.
	for _, nu := range [][2]string{
		{"catalog.binding_hit_rate", "frac"}, {"mqp.plancache_hit_rate", "frac"},
		{"route.shortcut_hit_rate", "frac"}, {"blobstore.dedup_ratio", "ratio"},
		{"blobstore.resident_mb", "MB"}, {"peer.blob_byref_frac", "frac"},
		{"peer.blob_fetches", "count"},
	} {
		m.add(nu[0], 0, nu[1])
	}
	for _, l := range errLines {
		fmt.Fprintf(os.Stderr, "mqpbench: server log: %s\n", l)
	}
	m.add("server.errors", float64(len(errLines)), "count")
	// The Fig. 3 plans name their collections; none is an area count.
	m.add("oracle.count_empty_area_frac", 0, "frac")
	fmt.Printf("# tcp-chain cpu_ms_per_plan by process role: meta %.4f seller %.4f tracks %.4f\n",
		ratio(cpu["meta"]-w.markRole["meta"], float64(ws.plans)),
		ratio(cpu["seller"]-w.markRole["seller"], float64(ws.plans)),
		ratio(cpu["tracks"]-w.markRole["tracks"], float64(ws.plans)))
	return nil
}

// probe times registration pushes to the meta server, the one publish an
// mqpd world has. The handler answers nothing, which a call reports as
// wire.ErrRemote once the reply frame is back; a handler failure shows as
// an error line in the meta server's log.
func (w *tcpChain) probe(tr *tracer) error {
	ns := workload.GarageSaleNamespace()
	reg := catalog.Registration{
		Addr: w.procs[3].addr, Role: catalog.RoleBase,
		Area: ns.MustParseArea("[USA/OR/Portland, Music/CDs]"),
		Collections: []catalog.Collection{{Name: "tracks", PathExp: "/data",
			Area: ns.MustParseArea("[USA/OR/Portland, Music/CDs]")}},
	}
	for i := 0; i < 32; i++ {
		t0 := tr.now()
		_, _, err := w.pool.Call(w.meta, func(e *xmltree.FrameEncoder) {
			e.Node(catalog.MarshalRegistration(reg))
		})
		t1 := tr.now()
		if err != nil && !errors.Is(err, wire.ErrRemote) {
			return fmt.Errorf("registration probe: %w", err)
		}
		tr.record(fmt.Sprintf("probe-%d", i), 0, "publish.register", t0, t1)
	}
	return nil
}

func (w *tcpChain) close() {
	if w.pool != nil {
		w.pool.Close()
		w.pool = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	for _, p := range w.procs {
		children.stop(p)
		// Start-up failures carry the log in their error and the traced
		// run reports every error line, so the logs need not outlive
		// their server.
		os.Remove(p.errPath)
	}
	w.procs = nil
}
