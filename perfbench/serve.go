package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/macrobench"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/simcache"
	"repro/internal/stats"
)

// serveConfig sizes serve-tiered. The coordinator's in-memory cache
// holds cacheEntries results: more than the hot set and the keys a
// round touches, fewer than the warm set, so a hot key stays resident
// and a warm key requested round-robin has always been evicted to the
// disk tier by the time it comes round again.
type serveConfig struct {
	hot          int // hot-set keys, each requested once per round
	warm         int // warm-set keys, even: sim-alpha/native-ds10l pairs
	diskPerRound int // warm keys requested per round
	cacheEntries int
	missBase     uint64 // miss limits are missBase + a seeded bijection of [0, missSpan)
	missSpan     uint64 // a power of two
}

// serveClients is the number of closed-loop HTTP callers, one per CPU
// of the machine the benchmark was sized on.
const serveClients = 2

// missWorkload is the program every miss runs, on sim-alpha.
const missWorkload = "gcc"

var serveDefaults = serveConfig{
	hot:          4,
	warm:         24,
	diskPerRound: 2,
	cacheEntries: 16,
	missBase:     20000,
	missSpan:     1 << 13,
}

// Request classes.
const (
	classHit = iota
	classDisk
	classMiss
	numClasses
)

var classNames = [numClasses]string{"hit", "disk", "miss"}

// cellKey is one (backend, workload, limit) triple.
type cellKey struct {
	machine, workload string
	limit             uint64
}

func (k cellKey) String() string { return fmt.Sprintf("%s/%s/%d", k.machine, k.workload, k.limit) }

func (k cellKey) query() string {
	return "/v1/run?" + url.Values{
		"machine":  {k.machine},
		"workload": {k.workload},
		"limit":    {strconv.FormatUint(k.limit, 10)},
	}.Encode()
}

// serveTiered drives an in-process coordinator service.Server, with a
// diskstore as its second cache tier, dispatching cold cells to one
// in-process worker service.Server, over loopback HTTP.
type serveTiered struct {
	cfg  serveConfig
	seed int64
	work string

	dir           string
	store         *diskstore.Store
	coord, worker *httpServer
	client        *http.Client
	origTransport http.RoundTripper
	missW         core.Workload

	hot, warm []cellKey
	ref       map[cellKey][]byte // body first served per hot and warm key
	tier2Base uint64

	nextWarm, nextMiss atomic.Uint64
	missA, missB       uint64 // the miss-limit bijection i -> (a*i + b) mod span
	diskServed         atomic.Uint64

	mu      sync.Mutex
	latency [numClasses][]float64 // untraced request latencies, ms
	alphaE  float64

	// tr is the tracer while a traced phase runs; the server, transport
	// and tier wrappers read it on every call.
	tr      atomic.Pointer[tracer]
	replica *simcache.Cache // holds the hot bodies for simcache.get spans
}

func newServeTiered(seed int64, work string, cfg serveConfig) *serveTiered {
	r := rand.New(rand.NewSource(seed))
	return &serveTiered{
		cfg:   cfg,
		seed:  seed,
		work:  work,
		missA: uint64(r.Int63())<<1 | 1,
		missB: uint64(r.Int63()),
	}
}

// httpServer is one in-process server on a loopback port.
type httpServer struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func serve(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *httpServer) close() {
	s.srv.Close()
	<-s.done
}

func (s *serveTiered) clients() int { return serveClients }

// setup starts the worker and the coordinator, then warms the warm set
// and the hot set through the coordinator. Every key is computed on the
// worker and written to both cache tiers, which is what a restarted
// daemon pays before it serves at speed.
func (s *serveTiered) setup() error {
	if s.cfg.warm%2 != 0 || s.cfg.warm <= s.cfg.cacheEntries {
		return fmt.Errorf("serve: warm set %d must be even and exceed the cache's %d entries", s.cfg.warm, s.cfg.cacheEntries)
	}
	var err error
	if s.dir, err = os.MkdirTemp(s.work, "store-"); err != nil {
		return err
	}
	if s.store, err = diskstore.Open(s.dir); err != nil {
		return err
	}
	s.origTransport = http.DefaultTransport
	http.DefaultTransport = &spanTransport{base: s.origTransport, s: s}
	worker := service.New(service.Config{})
	if s.worker, err = serve(s.wrapWorker(worker.Handler())); err != nil {
		return err
	}
	coord := service.New(service.Config{
		CacheEntries: s.cfg.cacheEntries,
		Tier2:        &spanStore{Store: s.store, s: s},
		Workers:      []string{s.worker.addr},
	})
	if s.coord, err = serve(s.wrapCoordinator(coord.Handler())); err != nil {
		return err
	}
	s.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients + 1},
		Timeout:   2 * time.Minute,
	}

	var ok bool
	if s.missW, ok = macrobench.ByName(missWorkload); !ok {
		return fmt.Errorf("serve: no macro workload %q", missWorkload)
	}
	macros := macrobench.Suite()
	for i := 0; i < s.cfg.hot; i++ {
		s.hot = append(s.hot, cellKey{"sim-alpha", macros[i%len(macros)].Name, 5000 + 100*uint64(i/len(macros))})
	}
	for i := 0; i < s.cfg.warm/2; i++ {
		w, limit := macros[i%len(macros)].Name, 6000+100*uint64(i/len(macros))
		s.warm = append(s.warm, cellKey{"sim-alpha", w, limit}, cellKey{"native-ds10l", w, limit})
	}
	s.ref = make(map[cellKey][]byte)
	// Warm the warm set first, so the hot set is the most recent in the
	// in-memory cache when the timed ops start.
	for _, k := range append(append([]cellKey(nil), s.warm...), s.hot...) {
		r, err := s.get(k, -1, -1)
		if err != nil {
			return err
		}
		if r.status != "miss" {
			return fmt.Errorf("serve: warming %s was a cache %s", k, r.status)
		}
		s.ref[k] = r.body
		// The traced run times this derivation as the service's own.
		key, err := s.key(k)
		if err != nil {
			return err
		}
		if key.String() != r.key {
			return fmt.Errorf("serve: derived key %s for %s, service used %s", key, k, r.key)
		}
	}
	var errs []float64
	for i := 0; i < len(s.warm); i += 2 {
		alpha, native := ipcOf(s.ref[s.warm[i]]), ipcOf(s.ref[s.warm[i+1]])
		if alpha == 0 || native == 0 {
			return fmt.Errorf("serve: no IPC in the warm bodies for %s", s.warm[i])
		}
		errs = append(errs, stats.PctErrorCPI(native, alpha))
	}
	s.alphaE = stats.MeanAbs(errs)
	s.replica = simcache.New(len(s.hot))
	for _, k := range s.hot {
		body := s.ref[k]
		key, err := s.key(k)
		if err != nil {
			return err
		}
		if _, _, err := s.replica.GetOrCompute(key, func() ([]byte, error) { return body, nil }); err != nil {
			return err
		}
	}
	m, err := s.scrape()
	if err != nil {
		return err
	}
	s.tier2Base = m["cache_tier2_hits_total"]
	return nil
}

// ipcOf reads a /v1/run body's IPC, or 0 when it has none.
func ipcOf(body []byte) float64 {
	var r struct {
		IPC float64 `json:"ipc"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0
	}
	return r.IPC
}

// reply is one /v1/run response: the body, the X-Simcache status and
// the X-Simcache-Key the service derived.
type reply struct {
	body        []byte
	status, key string
}

// get requests one cell from the coordinator.
func (s *serveTiered) get(k cellKey, parent, op int) (reply, error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+s.coord.addr+k.query(), nil)
	if err != nil {
		return reply{}, err
	}
	if parent >= 0 {
		req.Header.Set("X-Perfbench-Span", strconv.Itoa(parent))
		req.Header.Set("X-Perfbench-Op", strconv.Itoa(op))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("serve: %s: status %d: %s", k, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return reply{body, resp.Header.Get("X-Simcache"), resp.Header.Get("X-Simcache-Key")}, nil
}

// round is one caller's op: every hot key once, diskPerRound warm keys
// in round-robin order, and one cell never requested before, in an
// order drawn from the seed.
func (s *serveTiered) round(client, id int) []int {
	classes := make([]int, 0, s.cfg.hot+s.cfg.diskPerRound+1)
	for i := 0; i < s.cfg.hot; i++ {
		classes = append(classes, classHit)
	}
	for i := 0; i < s.cfg.diskPerRound; i++ {
		classes = append(classes, classDisk)
	}
	classes = append(classes, classMiss)
	r := rand.New(rand.NewSource(s.seed*1_000_003 + int64(id)*31 + int64(client)))
	r.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	return classes
}

// missKey returns the i-th cell never requested before.
func (s *serveTiered) missKey(i uint64) (cellKey, error) {
	if i >= s.cfg.missSpan {
		return cellKey{}, fmt.Errorf("serve: more than %d misses in one run", s.cfg.missSpan)
	}
	off := (s.missA*i + s.missB) & (s.cfg.missSpan - 1)
	return cellKey{"sim-alpha", missWorkload, s.cfg.missBase + off}, nil
}

func (s *serveTiered) op(client, id int, tr *tracer) (uint64, error) {
	if tr != nil && s.tr.Load() == nil {
		s.tr.Store(tr)
	}
	opSpan := tr.begin("op", -1, id, "serve-tiered")
	defer tr.end(opSpan)
	var insts uint64
	hot := 0
	for _, class := range s.round(client, id) {
		var k cellKey
		switch class {
		case classHit:
			k = s.hot[hot]
			hot++
		case classDisk:
			k = s.warm[(s.nextWarm.Add(1)-1)%uint64(len(s.warm))]
		case classMiss:
			var err error
			if k, err = s.missKey(s.nextMiss.Add(1) - 1); err != nil {
				return 0, err
			}
		}
		if tr != nil && class == classHit {
			if err := s.traceKey(tr, k); err != nil {
				return 0, err
			}
		}
		rs := tr.begin("http.request", opSpan, id, classNames[class])
		start := time.Now()
		r, err := s.get(k, rs, id)
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		tr.end(rs)
		if err != nil {
			return 0, err
		}
		if err := s.check(class, k, r.body, r.status); err != nil {
			return 0, err
		}
		if class == classMiss {
			insts += k.limit
		}
		if class == classDisk {
			s.diskServed.Add(1)
		}
		if tr == nil {
			s.mu.Lock()
			s.latency[class] = append(s.latency[class], ms)
			s.mu.Unlock()
		}
	}
	return insts, nil
}

// check verifies one response against its class.
func (s *serveTiered) check(class int, k cellKey, body []byte, status string) error {
	want := "hit"
	if class == classMiss {
		want = "miss"
	}
	if status != want {
		return fmt.Errorf("serve: %s request %s was a cache %s", classNames[class], k, status)
	}
	if class != classMiss {
		if !bytes.Equal(body, s.ref[k]) {
			return fmt.Errorf("serve: %s body for %s differs from the first served", classNames[class], k)
		}
		return nil
	}
	var r struct {
		Instructions uint64 `json:"instructions"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("serve: miss body for %s: %w", k, err)
	}
	if r.Instructions != k.limit {
		return fmt.Errorf("serve: miss %s retired %d instructions", k, r.Instructions)
	}
	return nil
}

// key derives a cell's cache key as the service does for a builtin
// workload's /v1/run.
func (s *serveTiered) key(k cellKey) (simcache.Key, error) {
	d, err := model.ByName(k.machine)
	if err != nil {
		return simcache.Key{}, err
	}
	w, ok := macrobench.ByName(k.workload)
	if !ok {
		return simcache.Key{}, fmt.Errorf("serve: no macro workload %q", k.workload)
	}
	max := w.MaxInstructions
	if max == 0 || max > k.limit {
		max = k.limit
	}
	workID := simcache.Fingerprint(struct {
		Name        string
		FastForward uint64
		Max         uint64
		Category    string
	}{w.Name, w.FastForward, max, w.Category})
	return simcache.KeyOf("run/v1", simcache.Fingerprint(d.Config), workID), nil
}

// traceKey times key derivation and an in-memory hit for a hot key,
// through the same simcache calls the service makes.
func (s *serveTiered) traceKey(tr *tracer, k cellKey) error {
	id := tr.begin("simcache.key", -1, -1, k.String())
	key, err := s.key(k)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("simcache.get", -1, -1, k.String())
	_, cached, err := s.replica.GetOrCompute(key, func() ([]byte, error) { return nil, errors.New("replica miss") })
	tr.end(id)
	if err == nil && !cached {
		err = fmt.Errorf("serve: replica cache missed %s", k)
	}
	return err
}

// finish checks the tier accounting: every disk request, and nothing
// else, was served from the diskstore, and no cell fell back to local
// execution.
func (s *serveTiered) finish() error {
	m, err := s.scrape()
	if err != nil {
		return err
	}
	if got, want := m["cache_tier2_hits_total"]-s.tier2Base, s.diskServed.Load(); got != want {
		return fmt.Errorf("serve: %d tier-2 hits for %d disk requests", got, want)
	}
	if n := m["dispatch_local_fallback_total"]; n != 0 {
		return fmt.Errorf("serve: %d cells fell back to local execution", n)
	}
	for c := 0; c < numClasses; c++ {
		if n := len(s.latency[c]); !tailOK(n, 95) {
			return fmt.Errorf("serve: %d %s requests are too few for a p95", n, classNames[c])
		}
	}
	return nil
}

// scrape reads the coordinator's counters from /metrics.
func (s *serveTiered) scrape() (map[string]uint64, error) {
	resp, err := s.client.Get("http://" + s.coord.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]uint64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseUint(f[1], 10, 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

func (s *serveTiered) cpiErr() float64 { return s.alphaE }

func (s *serveTiered) ladderSet() []core.Workload {
	w := s.missW
	w.MaxInstructions = s.cfg.missBase
	return []core.Workload{w}
}

func (s *serveTiered) report(add func(string, float64, string, int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := 0; c < numClasses; c++ {
		n := len(s.latency[c])
		add("serve."+classNames[c]+"_p50_ms", median(s.latency[c]), "ms", n)
		add("serve."+classNames[c]+"_p95_ms", percentile(s.latency[c], 95), "ms", n)
	}
}

// layers derives the serving layers' costs from the traced phase.
func (s *serveTiered) layers(spans []span, _ map[string]float64) (map[string]float64, error) {
	out := make(map[string]float64)
	durs := map[string][]float64{}
	handlerOf := map[int]int{} // http.request span -> its service.handler span
	workerByTag := map[string]int{}
	for i, sp := range spans {
		if sp.End < 0 {
			continue
		}
		durs[sp.Name] = append(durs[sp.Name], float64(sp.dur()))
		switch sp.Name {
		case "service.handler":
			handlerOf[sp.Parent] = i
		case "worker.handler":
			workerByTag[sp.Tag] = i
		}
	}
	var handler, overhead, dispatch []float64
	for i, sp := range spans {
		switch {
		case sp.Name == "http.request" && sp.Tag == "hit":
			if h, ok := handlerOf[i]; ok {
				handler = append(handler, float64(spans[h].dur()))
				overhead = append(overhead, float64(sp.dur()-spans[h].dur()))
			}
		case sp.Name == "dispatch.cell":
			if w, ok := workerByTag[sp.Tag]; ok {
				dispatch = append(dispatch, float64(sp.dur()-spans[w].dur()))
			}
		}
	}
	out["service.handler_us"] = median(handler) / 1e3
	out["http.overhead_us"] = median(overhead) / 1e3
	out["dispatch.cell_rtt_ms"] = median(durs["dispatch.cell"]) / 1e6
	out["dispatch.overhead_ms"] = median(dispatch) / 1e6
	out["simcache.key_us"] = median(durs["simcache.key"]) / 1e3
	out["simcache.get_us"] = median(durs["simcache.get"]) / 1e3
	out["diskstore.get_ms"] = median(durs["diskstore.Get"]) / 1e6
	out["diskstore.put_ms"] = median(durs["diskstore.Put"]) / 1e6
	out["diskstore.corrupt_total"] = float64(s.store.CorruptReads())
	m, err := s.scrape()
	if err != nil {
		return nil, err
	}
	out["dispatch.retry_total"] = float64(m["dispatch_retries_total"])
	out["dispatch.fallback_total"] = float64(m["dispatch_local_fallback_total"])
	return out, nil
}

func (s *serveTiered) close() {
	if s.coord != nil {
		s.coord.close()
	}
	if s.worker != nil {
		s.worker.close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.origTransport != nil {
		http.DefaultTransport = s.origTransport
		if t, ok := s.origTransport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// wrapCoordinator puts a service.handler span around each coordinator
// request during a traced phase, under the client's request span.
func (s *serveTiered) wrapCoordinator(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		parent, err1 := strconv.Atoi(r.Header.Get("X-Perfbench-Span"))
		op, err2 := strconv.Atoi(r.Header.Get("X-Perfbench-Op"))
		if tr == nil || err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.begin("service.handler", parent, op, r.URL.RawQuery)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// wrapWorker puts a worker.handler span, tagged with the cell, around
// each worker request during a traced phase.
func (s *serveTiered) wrapWorker(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		if tr == nil || r.URL.Path != "/v1/cell" {
			h.ServeHTTP(w, r)
			return
		}
		tag, body := cellTag(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		id := tr.begin("worker.handler", -1, -1, tag)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// cellTag reads a /v1/cell body and names the cell it carries. The
// tag only pairs spans; a body it cannot read passes on as read, and
// the service reports the error.
func cellTag(rc io.ReadCloser) (string, []byte) {
	body, _ := io.ReadAll(rc)
	rc.Close()
	var c struct {
		Machine  string `json:"machine"`
		Workload string `json:"workload"`
		Limit    uint64 `json:"limit"`
	}
	json.Unmarshal(body, &c)
	return cellKey{c.Machine, c.Workload, c.Limit}.String(), body
}

// spanTransport wraps the transport the coordinator's dispatcher uses
// and puts a dispatch.cell span around each cell's round trip, from
// sending the request to reading the last byte of the reply.
type spanTransport struct {
	base http.RoundTripper
	s    *serveTiered
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tr := t.s.tr.Load()
	if tr == nil || r.URL.Path != "/v1/cell" || r.Body == nil {
		return t.base.RoundTrip(r)
	}
	tag, body := cellTag(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	id := tr.begin("dispatch.cell", -1, -1, tag)
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: tr, id: id}
	return resp, nil
}

// spanBody ends its span when the body is fully read or closed.
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	id   int
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(func() { b.tr.end(b.id) })
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(func() { b.tr.end(b.id) })
	return b.ReadCloser.Close()
}

// spanStore is the coordinator's diskstore with a span around each Get
// and Put during a traced phase. It embeds the store so the service
// still sees its corruption and write-error counters.
type spanStore struct {
	*diskstore.Store
	s *serveTiered
}

func (d *spanStore) Get(k simcache.Key) ([]byte, bool) {
	id := d.s.tr.Load().begin("diskstore.Get", -1, -1, "")
	v, ok := d.Store.Get(k)
	d.s.tr.Load().end(id)
	return v, ok
}

func (d *spanStore) Put(k simcache.Key, v []byte) {
	id := d.s.tr.Load().begin("diskstore.Put", -1, -1, "")
	d.Store.Put(k, v)
	d.s.tr.Load().end(id)
}
