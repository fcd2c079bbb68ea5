package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/blobstore"
	"repro/internal/catalog"
	"repro/internal/chaos"
	"repro/internal/hierarchy"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

const metaAddr = "meta:9020"

// planCacheSize is every peer's prepared-plan cache size: cmd/mqpd's
// -plan-cache default.
const planCacheSize = 128

// scatterPublishShare is the share of sim-scatter's operations that are
// publishes. It follows the write rate of the large-world chaos harness
// (internal/chaos/large.go) at sim-scatter's 128 sellers: N/100 = 1 peer
// joins and registers per scenario of 8+E[rand(5)]+N/100 = 11 plans, one
// registration in every 12 operations.
const scatterPublishShare = 1.0 / 12

// worldSeed generates every workload's data. The data stays the same from
// run to run; the run's seed draws the plans sent into it, so runs with
// different seeds measure the same system under different plan streams.
const worldSeed = 1

// query is one pool entry: a plan prototype and the oracle's answer to it.
type query struct {
	plan  *algebra.Plan
	want  digest
	items []*xmltree.Node // the oracle's answer, for checking partial results
}

// seller is one data-holding peer's inputs.
type seller struct {
	addr     string
	area     namespace.Area
	pathExp  string
	items    []*xmltree.Node
	upstream string         // the index it registers with
	state    hierarchy.Path // that index's state
}

// index is one authoritative state index.
type index struct {
	addr  string
	state hierarchy.Path
}

// simConfig is what distinguishes the two in-process workloads.
type simConfig struct {
	name string
	// workers > 0 runs every serving peer on the concurrent runtime.
	workers int
	// repeat: blob stores, prepared-plan caches sized for the query set,
	// learned shortcuts on the clients, which submit to themselves so their
	// own processor routes (and learns).
	repeat bool
	// publishShare is the share of operations that are publishes.
	publishShare float64
	// warm is the number of warm-up operations per client before timing.
	warm int
}

// simWorld is an in-process peer.Peer world on an inline simnet.
type simWorld struct {
	cfg     simConfig
	seed    int64
	ns      *namespace.Namespace
	sellers []seller
	indexes []index // one per state that has sellers
	pool    []query
	// defect holds the plans the load leaves out because the program is
	// known to answer them wrongly (countEmptyArea); a traced run probes
	// them once after its window.
	defect []query
	tr     *tracer
	base   float64 // live heap before any world was built

	// Rebuilt by each setup.
	net      *simnet.Network
	peers    map[string]*peer.Peer
	clientsP []*tap
	hops     atomic.Int64
	errs     atomic.Int64
	warmNext atomic.Int64
	marked   simCounters
	markErrs int64
}

// tap decorates a peer on the network: it times each Deliver of a plan or
// result, and on a client it hands each result to the waiting caller.
type tap struct {
	inner   *peer.Peer
	span    string // deliver.<role>: catalog, base or client
	tr      *tracer
	errs    *atomic.Int64
	results chan delivered // clients only
}

// delivered is a result as its client accepted it.
type delivered struct {
	id      string
	hops    int
	partial bool
	reason  string
	items   []*xmltree.Node
	err     error
	ready   int64 // tracer clock
}

func (t *tap) Addr() string { return t.inner.Addr() }

func (t *tap) Serve(n *simnet.Network, req *simnet.Message) (*xmltree.Node, error) {
	return t.inner.Serve(n, req)
}

func (t *tap) Deliver(n *simnet.Network, msg *simnet.Message) error {
	start := t.tr.now()
	err := t.inner.Deliver(n, msg)
	if err != nil {
		t.errs.Add(1)
	}
	switch {
	case msg.Kind == peer.KindResult && t.results != nil:
		d := delivered{id: msg.Body.AttrDefault("id", ""), err: err}
		if r, ok := t.inner.TakeResult(); ok {
			d.id, d.hops, d.partial = r.Plan.ID, r.Hops, r.Partial
			d.reason = r.Plan.PartialReason()
			d.items, d.err = r.Plan.Results()
		} else if d.err == nil {
			d.err = fmt.Errorf("client %s accepted no result", t.Addr())
		}
		d.ready = t.tr.now()
		if t.tr.on.Load() {
			t.tr.record(d.id, msg.Hops, "client.result", start, d.ready)
			t.tr.capture(msg.Body)
			t.tr.size("result", msg.Body.ByteSize())
		}
		select {
		case t.results <- d:
		default: // a late result nobody waits for any more
		}
	case t.tr.on.Load() && (msg.Kind == peer.KindMQP || msg.Kind == peer.KindResult):
		t.tr.record(msg.Body.AttrDefault("id", ""), msg.Hops, t.span, start, t.tr.now())
		t.tr.capture(msg.Body)
		if msg.Hops == 1 {
			t.tr.size("submit", msg.Body.ByteSize())
		}
	}
	return err
}

// newScatter generates sim-scatter's inputs: 128 garage-sale sellers with
// 16 items each under one authoritative index per state, and a pool of
// skewed area queries in the chaos shape mix with their oracle answers.
func newScatter(seed int64, tr *tracer) (*simWorld, error) {
	ns := workload.GarageSaleNamespace()
	gs := workload.GarageSale(ns, workload.GarageSaleConfig{
		Seed: mix(worldSeed, 1), Sellers: 128, ItemsPerSeller: 16, SpecialtyZipf: 1.4,
	})
	w := &simWorld{
		cfg:  simConfig{name: "sim-scatter", publishShare: scatterPublishShare, warm: 512},
		seed: seed, ns: ns, tr: tr,
	}
	for i, s := range gs {
		w.sellers = append(w.sellers, seller{
			addr: s.Addr, area: s.Area, pathExp: fmt.Sprintf("/gs[s=%d]", i),
			items: s.Items, upstream: indexAddr(s.City), state: s.City.Truncate(2),
		})
	}
	// The pool is stratified so that every seed runs the same mix: each
	// seller's cell appears in all five shapes twice as it is, once widened
	// to its state, and once with its category in a city drawn uniformly,
	// which is often an area no seller covers. Queries follow the sellers'
	// categories, so they inherit the data's skew. The seed draws the price
	// bounds, those cities and the order.
	rng := rand.New(rand.NewSource(mix(seed, 2)))
	cities := ns.Dimensions()[0].Leaves()
	var pool, defect []*algebra.Plan
	n := 0
	for _, si := range rng.Perm(len(gs)) {
		s := gs[si]
		for kind := 0; kind < 4; kind++ {
			for shape := 0; shape < 5; shape++ {
				loc := s.City
				switch kind {
				case 2:
					loc = loc.Parent()
				case 3:
					loc = cities[rng.Intn(len(cities))]
				}
				area := namespace.NewArea(namespace.NewCell(loc, s.Spec))
				p := planShape(shape, fmt.Sprintf("q%d", n), area, 10+rng.Intn(150), ns)
				n++
				if shape == 1 && w.meetsCountEmptyArea(area) {
					defect = append(defect, p)
				} else {
					pool = append(pool, p)
				}
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return w, w.finish(pool, defect)
}

// meetsCountEmptyArea reports whether a count plan over area meets the
// countEmptyArea defect: no seller's area overlaps it, but its state has
// sellers and so an authoritative index that registered with the
// meta-index. Such plans are left out of the load, where they would fail,
// and probed after a traced window instead.
func (w *simWorld) meetsCountEmptyArea(area namespace.Area) bool {
	indexed := false
	for _, s := range w.sellers {
		if s.area.Overlaps(area) {
			return false
		}
		for _, c := range area.Cells {
			indexed = indexed || s.state.Covers(c.Coords[0])
		}
	}
	return indexed
}

// planShape builds one of the chaos harness's five plan shapes over area:
// select, count, union with the generalized area, project, difference.
// Every shape has exact multiset semantics, so the oracle's answer is the
// answer.
func planShape(shape int, id string, area namespace.Area, maxPrice int, ns *namespace.Namespace) *algebra.Plan {
	urn := func() *algebra.Node { return algebra.URN(namespace.EncodeURN(area)) }
	pred := algebra.MustParsePredicate(fmt.Sprintf("price < %d", maxPrice))
	var body *algebra.Node
	switch shape {
	case 0:
		body = algebra.Select(pred, urn())
	case 1:
		body = algebra.Count(algebra.Select(pred, urn()))
	case 2:
		wide := ns.Generalize(area)
		body = algebra.Select(pred, algebra.Union(urn(), algebra.URN(namespace.EncodeURN(wide))))
	case 3:
		body = algebra.Project("hit", []string{"name", "price", "city"}, algebra.Select(pred, urn()))
	default:
		low := algebra.MustParsePredicate(fmt.Sprintf("price < %d", 1+maxPrice/2))
		body = algebra.Difference(algebra.Select(pred, urn()), algebra.Select(low, urn()))
	}
	p := algebra.NewPlan(id, "client", algebra.Display(body))
	p.RetainOriginal()
	return p
}

func indexAddr(city hierarchy.Path) string {
	return "idx-" + strings.ReplaceAll(city.Truncate(2).String(), "/", "-") + ":9020"
}

// newRepeat generates sim-repeat's inputs: four sellers of Portland CDs
// whose 24 items each repeat six large payload documents, 24 garage-sale
// sellers, and sixteen repeated plans in the five shapes, half over the CD
// area and half over garage-sale sellers' cells.
func newRepeat(seed int64, tr *tracer) (*simWorld, error) {
	ns := workload.GarageSaleNamespace()
	rng := rand.New(rand.NewSource(mix(worldSeed, 3)))
	w := &simWorld{
		cfg:  simConfig{name: "sim-repeat", workers: 2, repeat: true, warm: 64},
		seed: seed, ns: ns, tr: tr,
	}
	portland := hierarchy.MustParsePath("USA/OR/Portland")
	cds := namespace.NewArea(namespace.NewCell(portland, hierarchy.MustParsePath("Music/CDs")))
	// Three cheap pressings and three dear ones: every CD plan's price
	// bound falls between them, so each seed selects the same payloads.
	payloads := make([]string, 6)
	for i := range payloads {
		price := 3 + rng.Intn(7)
		if i >= 3 {
			price = 46 + rng.Intn(15)
		}
		payloads[i] = fmt.Sprintf("<item><name>Pressing %02d</name><category>Music/CDs</category>"+
			"<city>USA/OR/Portland</city><price>%d</price><desc>%s</desc></item>",
			i, price, strings.Repeat("A fine recording, archived with full provenance detail. ", 20+rng.Intn(8)))
	}
	for s := 0; s < 4; s++ {
		items := make([]*xmltree.Node, 24)
		for i := range items {
			items[i] = xmltree.MustParse(payloads[rng.Intn(len(payloads))])
		}
		w.sellers = append(w.sellers, seller{
			addr: fmt.Sprintf("press%d:9020", s), area: cds, pathExp: fmt.Sprintf("/press[s=%d]", s),
			items: items, upstream: indexAddr(portland), state: portland.Truncate(2),
		})
	}
	gs := workload.GarageSale(ns, workload.GarageSaleConfig{
		Seed: mix(worldSeed, 4), Sellers: 24, ItemsPerSeller: 16, SpecialtyZipf: 1.4,
	})
	for i, s := range gs {
		w.sellers = append(w.sellers, seller{
			addr: s.Addr, area: s.Area, pathExp: fmt.Sprintf("/gs[s=%d]", i),
			items: s.Items, upstream: indexAddr(s.City), state: s.City.Truncate(2),
		})
	}
	// The seed draws the price bounds and the cycling order; the areas and
	// shapes are fixed, so the work per plan is the same for every seed.
	qrng := rand.New(rand.NewSource(mix(seed, 2)))
	pool := make([]*algebra.Plan, 16)
	for i := range pool {
		area, maxPrice := cds, 20+qrng.Intn(25)
		if i%2 == 1 {
			s := gs[i/2]
			area, maxPrice = namespace.NewArea(namespace.NewCell(s.City, s.Spec)), 200+qrng.Intn(50)
		}
		pool[i] = planShape(i%5, fmt.Sprintf("q%d", i), area, maxPrice, ns)
	}
	qrng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return w, w.finish(pool, nil)
}

// finish computes the oracle's answer to every pool and defect plan, then
// the live heap every later heap figure is measured from.
func (w *simWorld) finish(pool, defect []*algebra.Plan) error {
	colls := make([]chaos.Collection, len(w.sellers))
	seenIdx := map[string]bool{}
	for i, s := range w.sellers {
		colls[i] = chaos.Collection{PathExp: s.pathExp, Area: s.area, Items: s.items}
		if !seenIdx[s.upstream] {
			seenIdx[s.upstream] = true
			w.indexes = append(w.indexes, index{s.upstream, s.state})
		}
	}
	oracle, err := chaos.NewOracle(w.ns, colls)
	if err != nil {
		return err
	}
	answer := func(plans []*algebra.Plan) ([]query, error) {
		qs := make([]query, len(plans))
		for i, p := range plans {
			items, err := oracle.Evaluate(p)
			if err != nil {
				return nil, err
			}
			qs[i] = query{plan: p, want: digestOf(items), items: items}
		}
		return qs, nil
	}
	if w.pool, err = answer(pool); err != nil {
		return err
	}
	if w.defect, err = answer(defect); err != nil {
		return err
	}
	w.base = settledHeap()
	return nil
}

func (w *simWorld) setup() error {
	net := simnet.New()
	w.net, w.peers, w.clientsP = net, map[string]*peer.Peer{}, nil
	add := func(cfg peer.Config, role string, results chan delivered) (*peer.Peer, error) {
		cfg.Net, cfg.NS = net, w.ns
		// Every peer signs its provenance visits.
		cfg.Key = []byte("k-" + cfg.Addr)
		cfg.PushSelect = true
		cfg.PlanCacheSize = planCacheSize
		if w.cfg.repeat {
			cfg.Blobs = blobstore.New()
		}
		p, err := peer.New(cfg)
		if err != nil {
			return nil, err
		}
		w.peers[cfg.Addr] = p
		t := &tap{inner: p, span: "deliver." + role, tr: w.tr, errs: &w.errs, results: results}
		// Replaces the peer's own entry: the network now delivers through
		// the decorator.
		net.Add(t)
		if results != nil {
			w.clientsP = append(w.clientsP, t)
		}
		return p, nil
	}
	workers := w.cfg.workers
	if _, err := add(peer.Config{Addr: metaAddr, Area: w.ns.Everything(), Authoritative: true,
		Workers: workers, QueueDepth: 256}, "catalog", nil); err != nil {
		return err
	}
	for _, idx := range w.indexes {
		area := namespace.NewArea(namespace.NewCell(idx.state, hierarchy.Top))
		p, err := add(peer.Config{Addr: idx.addr, Area: area, Authoritative: true,
			Workers: workers, QueueDepth: 256}, "catalog", nil)
		if err != nil {
			return err
		}
		if err := p.RegisterWith(metaAddr, catalog.RoleIndex); err != nil {
			return err
		}
	}
	for _, s := range w.sellers {
		p, err := add(peer.Config{Addr: s.addr, Area: s.area, Workers: workers, QueueDepth: 256}, "base", nil)
		if err != nil {
			return err
		}
		p.AddCollection(peer.Collection{Name: "items", PathExp: s.pathExp, Area: s.area, Items: s.items})
		if err := p.RegisterWith(s.upstream, catalog.RoleBase); err != nil {
			return err
		}
	}
	for c := 0; c < clients; c++ {
		cfg := peer.Config{Addr: fmt.Sprintf("client%d:9020", c), LearnShortcuts: w.cfg.repeat}
		// Room for late results of plans that timed out; when it is full
		// they are dropped.
		p, err := add(cfg, "client", make(chan delivered, 8))
		if err != nil {
			return err
		}
		if err := p.Catalog().Register(catalog.Registration{
			Addr: metaAddr, Role: catalog.RoleMetaIndex, Area: w.ns.Everything(), Authoritative: true,
		}); err != nil {
			return err
		}
	}
	return nil
}

func (w *simWorld) warm() error { return warmUp(w, w.cfg.warm, &w.warmNext) }

// warmUp runs n operations per client before timing, drawn from indexes
// below zero so they never repeat the measured sequence's plan ids. Any
// failure fails the warm-up.
func warmUp(w world, n int, next *atomic.Int64) error {
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			for i := 0; i < n; i++ {
				k := -1 - next.Add(1)
				if r := w.op(c, k); r.fail != "" {
					errs <- fmt.Errorf("warm-up operation %d: %s", k, r.fail)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (w *simWorld) op(c int, k int64) opResult {
	rng := rand.New(rand.NewSource(mix(w.seed, k)))
	if w.cfg.publishShare > 0 && rng.Float64() < w.cfg.publishShare {
		return w.publish(rng.Intn(len(w.sellers)), fmt.Sprintf("pub-%d", k))
	}
	n := int64(len(w.pool))
	return w.submit(c, fmt.Sprintf("%s-%d-%d", w.cfg.name, w.seed, k), w.pool[((k%n)+n)%n])
}

// submit sends plan q as id from client c and checks its result.
func (w *simWorld) submit(c int, id string, q query) opResult {
	cl := w.clientsP[c]
	t0 := w.tr.now()
	plan := q.plan.Clone()
	plan.ID, plan.Target = id, cl.Addr()
	entry := metaAddr
	if w.cfg.repeat {
		entry = cl.Addr()
	}
	err := cl.inner.Submit(entry, plan)
	w.tr.record(id, 0, "client.submit", t0, w.tr.now())
	if err != nil {
		fmt.Fprintf(os.Stderr, "mqpbench: plan %s: submit: %v\n", id, err)
		return opResult{fail: "submit"}
	}
	d, ok := awaitResult(cl.results, id)
	if !ok {
		return opResult{fail: "timeout"}
	}
	w.hops.Add(int64(d.hops))
	return check(id, d, q, t0)
}

// awaitResult waits for the result of plan id, dropping late results of
// plans that already timed out.
func awaitResult(ch chan delivered, id string) (delivered, bool) {
	select {
	case d := <-ch:
		if d.id == id {
			return d, true
		}
	default:
	}
	timer := time.NewTimer(planTimeout)
	defer timer.Stop()
	for {
		select {
		case d := <-ch:
			if d.id == id {
				return d, true
			}
		case <-timer.C:
			return delivered{}, false
		}
	}
}

// countEmptyArea names the one failure the program is known to produce
// (README.md, "Known defects"): a count plan over an area no seller covers
// ends as a partial result with no items, while the oracle's answer is
// <count>0</count>. The load holds no such plan (meetsCountEmptyArea), so
// in the load it fails the run like any other failure; the defect probe
// counts it.
const countEmptyArea = "count-empty-area"

// check holds a result against the oracle's answer. A complete result
// must equal it. A partial result must be a sub-multiset of it (anything
// else is a mismatch); it counts as a success only when the oracle shows it
// is complete, such as the empty answer over an empty area, and otherwise
// fails as countEmptyArea if it is that defect, else as "partial".
func check(id string, d delivered, want query, t0 int64) opResult {
	r := opResult{lat: time.Duration(d.ready - t0), partial: d.partial, admission: d.reason == "admission"}
	if d.err != nil {
		fmt.Fprintf(os.Stderr, "mqpbench: plan %s: %v\n", id, d.err)
		r.fail = "stuck"
		return r
	}
	got := digestOf(d.items)
	switch {
	case got == want.want:
	case !d.partial:
		fmt.Fprintf(os.Stderr, "mqpbench: plan %s: oracle mismatch: got %v, want %v\n", id, got, want.want)
		r.fail = "mismatch"
	default:
		if ok, diff := chaos.MultisetSubset(chaos.Multiset(d.items), chaos.Multiset(want.items)); !ok {
			fmt.Fprintf(os.Stderr, "mqpbench: plan %s: partial result not within the oracle's answer: %s\n", id, diff)
			r.fail = "mismatch"
		} else if len(d.items) == 0 && len(want.items) == 1 &&
			want.items[0].Name == "count" && want.items[0].InnerText() == "0" {
			r.fail = countEmptyArea
		} else {
			r.fail = "partial"
		}
	}
	return r
}

// publish re-installs seller i's identical items and re-registers it with
// its index: the store and catalog generations move, the answers do not.
func (w *simWorld) publish(i int, trace string) opResult {
	s := w.sellers[i]
	p := w.peers[s.addr]
	t0 := w.tr.now()
	err := p.SetItems(s.pathExp, s.items)
	t1 := w.tr.now()
	if err == nil {
		err = p.RegisterWith(s.upstream, catalog.RoleBase)
	}
	t2 := w.tr.now()
	w.tr.record(trace, 0, "publish.setitems", t0, t1)
	w.tr.record(trace, 0, "publish.register", t1, t2)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mqpbench: %s: %v\n", trace, err)
		return opResult{publish: true, fail: "publish"}
	}
	return opResult{publish: true, lat: time.Duration(t2 - t0)}
}

// probe publishes on a read-only workload once its traced window is over.
func (w *simWorld) probe(tr *tracer) error {
	if w.cfg.publishShare > 0 {
		return nil
	}
	for i := 0; i < 32; i++ {
		if r := w.publish(i%len(w.sellers), fmt.Sprintf("probe-%d", i)); r.fail != "" {
			return fmt.Errorf("publish probe %d failed", i)
		}
	}
	return nil
}

func (w *simWorld) usage() (usage, error) {
	cpu, err := cpuMS("self")
	if err != nil {
		return usage{}, err
	}
	m := w.net.Metrics()
	return usage{cpuMS: cpu, netBytes: float64(m.Bytes), msgs: float64(m.Messages), hops: float64(w.hops.Load())}, nil
}

func (w *simWorld) mem() (heap, rss float64) {
	kb, err := procField("self", "status", "VmRSS")
	if err == nil {
		rss = float64(kb) * 1024
	}
	return liveHeap() - w.base, rss
}

// simCounters sums the peers' cache, shortcut, blob and stuck counters.
type simCounters struct {
	bindHit, bindMiss, pcHit, pcMiss int64
	scHit, scMiss                    uint64
	byRefBytes                       int64
	fetches                          uint64
	resident, logical                int64
	stuck                            int
}

func (w *simWorld) counters() simCounters {
	var c simCounters
	for _, p := range w.peers {
		h, m := p.Catalog().CacheStats()
		c.bindHit += h
		c.bindMiss += m
		cs := p.CacheStats()
		c.pcHit += cs.Hits
		c.pcMiss += cs.Misses
		if sc := p.Shortcuts(); sc != nil {
			st := sc.Stats()
			c.scHit += st.Hits
			c.scMiss += st.Misses
		}
		bs := p.BlobNetStats()
		c.byRefBytes += bs.ByRefBytes
		c.fetches += bs.Fetches
		if s := p.BlobStore(); s != nil {
			st := s.Stats()
			c.resident += st.Bytes
			c.logical += st.LogicalBytes
		}
		c.stuck += len(p.StuckErrors())
	}
	return c
}

func (w *simWorld) close() {
	for _, p := range w.peers {
		p.Close()
	}
	w.peers = nil
}

func (w *simWorld) mark() {
	w.marked, w.markErrs = w.counters(), w.errs.Load()
}

func (w *simWorld) layers(m *metricSet, tr *tracer, ws *windowStats) error {
	c, b := w.counters(), w.marked
	m.add("route.hops_per_plan", ratio(ws.use.hops, float64(ws.plans)), "count")
	m.add("net.msgs_per_plan", ratio(ws.use.msgs, float64(ws.plans)), "count")
	spans, _ := tr.snapshot()
	self := selfTimes(spans)
	for _, role := range []string{"catalog", "base"} {
		v, _ := meanSelfUS(spans, self, "deliver."+role)
		m.add("hop.self_us."+role, v, "us")
	}
	m.add("catalog.binding_hit_rate", ratio(float64(c.bindHit-b.bindHit), float64(c.bindHit-b.bindHit+c.bindMiss-b.bindMiss)), "frac")
	m.add("mqp.plancache_hit_rate", ratio(float64(c.pcHit-b.pcHit), float64(c.pcHit-b.pcHit+c.pcMiss-b.pcMiss)), "frac")
	m.add("route.shortcut_hit_rate", ratio(float64(c.scHit-b.scHit), float64(c.scHit-b.scHit+c.scMiss-b.scMiss)), "frac")
	m.add("blobstore.dedup_ratio", ratio(float64(c.logical), float64(c.resident)), "ratio")
	m.add("blobstore.resident_mb", float64(c.resident)/(1<<20), "MB")
	byRef := float64(c.byRefBytes - b.byRefBytes)
	m.add("peer.blob_byref_frac", ratio(byRef, byRef+ws.use.netBytes), "frac")
	m.add("peer.blob_fetches", float64(c.fetches-b.fetches), "count")
	m.add("server.errors", float64(c.stuck-b.stuck)+float64(w.errs.Load()-w.markErrs), "count")
	m.add("oracle.count_empty_area_frac", w.probeDefect(), "frac")
	return nil
}

// probeDefect submits each plan left out of the load for the
// countEmptyArea defect once, untraced, and returns the share that fails;
// a fix of the defect brings it to 0.
func (w *simWorld) probeDefect() float64 {
	if len(w.defect) == 0 {
		return 0
	}
	traced := w.tr.on.Swap(false)
	defer w.tr.on.Store(traced)
	failed := map[string]int{}
	n := 0
	for i, q := range w.defect {
		if r := w.submit(0, fmt.Sprintf("%s-%d-defect-%d", w.cfg.name, w.seed, i), q); r.fail != "" {
			failed[r.fail]++
			n++
		}
	}
	fmt.Printf("# count-empty-area probe: %d of %d count plans over empty indexed areas failed %v\n", n, len(w.defect), failed)
	return float64(n) / float64(len(w.defect))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
