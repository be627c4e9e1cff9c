package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/obs"
	"ssos/internal/serve"
)

// serveLoad drives an in-process ssos-serve in a closed loop: nproc-1
// request clients, each taking one session after another through
// create, short runs with periodic faults and reads, and delete, plus
// one live SSE subscriber following client 0's current session. A pass
// is one session per image per client; an operation is one HTTP
// request, timed at the client.
type serveLoad struct {
	seed    int64
	reg     *serve.Registry
	ts      *httptest.Server
	client  *http.Client
	clients int

	tr      atomic.Pointer[tracer] // set during traced passes
	handler sync.Map               // request id -> handler duration
	reqID   atomic.Int64

	busy      time.Duration // time spent in passes
	steps     atomic.Uint64 // simulated steps served (replica steps for clusters)
	published atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	firstPub  uint64 // SSE frames published during the first pass
	passes    int

	bridgeMu sync.Mutex
	bridge   *sessionLog // last reinstall session, replayed in batch at the end
}

// sessionPlan is one image in the client's rotation.
type sessionPlan struct {
	spec  string // create body, without the seed
	fault string // fault body
	run   string // run body
	steps uint64 // simulated steps one run request advances
}

const (
	runsPerSession = 12
	faultEvery     = 4 // a fault after every 4th run, so each session has recovery episodes
	scrapeEvery    = 3 // metrics, episodes and /metrics read after every 3rd run
	residents      = 3
	sessionSeeds   = 100000 // session seeds per workload seed
)

// servePlans mixes the machine approaches, a tickful kernel, a layered
// ring and one cluster session, each with a fault its layer recovers
// from.
var servePlans = []sessionPlan{
	{`"image":"reinstall"`, `{"kind":"os-blast"}`, `{"steps":15000}`, 15000},
	{`"image":"scheduler"`, `{"kind":"table-blast"}`, `{"steps":15000}`, 15000},
	{`"image":"monitor"`, `{"kind":"os-blast"}`, `{"steps":20000}`, 20000},
	{`"image":"scheduler-mbox-kstate"`, `{"kind":"mailbox"}`, `{"steps":15000}`, 15000},
	{`"image":"reinstall-tickful"`, `{"kind":"cpu-blast"}`, `{"steps":10000}`, 10000},
	{`"kind":"cluster","image":"reinstall","replicas":3,"epoch_steps":20000`, `{"kind":"os-blast","replica":1}`,
		`{"epochs":1}`, 3 * 20000},
}

// sessionLog is what the bridge check needs of one machine session: its
// image, seed and request script, and the /events bytes it served.
type sessionLog struct {
	image  string
	seed   int64
	script []string // "run N" or "fault KIND"
	events bytes.Buffer
}

// timedHandler wraps the API to time each request's handler, so client
// latency splits into handler time and transport. Traced requests carry
// their client span's ID; the handler span is recorded under it.
type timedHandler struct {
	l *serveLoad
	h http.Handler
}

func (t timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Bench-Req")
	if id == "" || strings.HasSuffix(r.URL.Path, "/stream") {
		t.h.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
	rr := rec{tr: t.l.tr.Load(), ctx: r.Context(), parent: parent}
	if parent == 0 {
		rr.tr = nil
	}
	d, _ := rr.call("serve", "handler "+endpoint(r.Method, r.URL.Path), func(rec) error {
		t.h.ServeHTTP(w, r)
		return nil
	})
	t.l.handler.Store(id, d)
}

// endpoint names the API route of a request path.
func endpoint(method, path string) string {
	path, _, _ = strings.Cut(path, "?")
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case path == "/metrics":
		return "prom"
	case len(parts) == 2 && method == http.MethodPost:
		return "create"
	case len(parts) == 3 && method == http.MethodDelete:
		return "delete"
	case len(parts) == 3:
		return "status"
	case len(parts) == 4:
		return parts[3]
	}
	return "other"
}

var serveEndpoints = []string{"create", "run", "fault", "status", "events", "episodes", "metrics", "prom", "delete"}

func (l *serveLoad) setup(seed int64) error {
	l.seed, l.clients = seed, max(1, runtime.NumCPU()-1)
	if err := assembleGuests(); err != nil {
		return err
	}
	// Registry workers and server goroutines inherit layer=serve, so
	// profile samples of simulation work done for requests are
	// attributed to the serving layer.
	pprof.Do(context.Background(), pprof.Labels("layer", "serve"), func(context.Context) {
		l.reg = serve.NewRegistry(serve.Options{IdleOps: -1}) // residents stay for the whole run
		l.ts = httptest.NewServer(timedHandler{l, serve.NewServer(l.reg)})
	})
	l.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: l.clients + 1}}
	// Resident sessions, so every /metrics scrape folds several.
	for i := 0; i < residents; i++ {
		p := servePlans[i%len(servePlans)]
		id, err := l.create(rec{}, nil, p, l.seed*sessionSeeds+int64(i), nil)
		if err != nil {
			return err
		}
		for _, body := range []string{p.run, p.fault, p.run} {
			path := "/run"
			if body == p.fault {
				path = "/fault"
			}
			if _, err := l.do(rec{}, nil, "POST", "/api/sessions/"+id+path, body); err != nil {
				return err
			}
		}
	}
	return nil
}

// do sends one request and reads the whole response. Requests made
// with st non-nil are measured operations: timed, counted and checked.
func (l *serveLoad) do(r rec, st *runStats, method, path, body string) ([]byte, error) {
	var out []byte
	var status int
	ep := endpoint(method, path)
	id := strconv.FormatInt(l.reqID.Add(1), 10)
	d, err := r.call("http", ep, func(r rec) error {
		req, err := http.NewRequest(method, l.ts.URL+path, strings.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("X-Bench-Req", id)
		if r.tr != nil {
			req.Header.Set("X-Bench-Span", strconv.FormatInt(r.parent, 10))
		}
		resp, err := l.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		out, err = io.ReadAll(resp.Body)
		return err
	})
	h, ok := l.handler.LoadAndDelete(id)
	if st == nil {
		if err == nil && status/100 != 2 {
			err = fmt.Errorf("%s %s: HTTP %d: %s", method, path, status, out)
		}
		return out, err
	}
	st.op(d)
	st.sample("serve."+ep+"_ms", ms(d))
	if ok {
		st.sample("serve.transport_ms", ms(d-h.(time.Duration)))
	}
	st.check(err == nil && status/100 == 2, "%s %s: HTTP %d %v %s", method, path, status, err, out)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (l *serveLoad) create(r rec, st *runStats, p sessionPlan, seed int64, log *sessionLog) (string, error) {
	b, err := l.do(r, st, "POST", "/api/sessions", fmt.Sprintf("{%s,\"seed\":%d}", p.spec, seed))
	if err != nil {
		return "", err
	}
	var s serve.Status
	if err := json.Unmarshal(b, &s); err != nil {
		return "", fmt.Errorf("create: %w", err)
	}
	if log != nil {
		log.seed = seed
	}
	return s.ID, nil
}

// sseResult is what the subscriber saw of one session.
type sseResult struct{ delivered, dropped uint64 }

// follow reads the session's SSE stream until the server ends it (the
// session was deleted and the stream drained).
func (l *serveLoad) follow(id string, ready chan<- struct{}, done chan<- sseResult) {
	var res sseResult
	defer func() { done <- res }()
	resp, err := l.client.Get(l.ts.URL + "/api/sessions/" + id + "/stream?since=0")
	close(ready)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: ssos":
			res.delivered++
		case strings.HasPrefix(line, `data: {"dropped":`):
			n, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(line, `data: {"dropped":`), "}"), 10, 64)
			res.dropped += n
		}
	}
}

// session takes one session through its whole life.
func (l *serveLoad) session(r rec, st *runStats, p sessionPlan, seed int64, sse bool) error {
	var log *sessionLog
	if strings.HasPrefix(p.spec, `"image":"reinstall"`) {
		log = &sessionLog{image: "reinstall"}
	}
	id, err := l.create(r, st, p, seed, log)
	if err != nil {
		return err
	}
	var done chan sseResult
	if sse {
		ready := make(chan struct{})
		done = make(chan sseResult, 1)
		go l.follow(id, ready, done)
		<-ready
	}
	base := "/api/sessions/" + id
	cursor := 0
	var events uint64
	for i := 1; i <= runsPerSession; i++ {
		b, err := l.do(r, st, "POST", base+"/run", p.run)
		if err != nil {
			return err
		}
		var s serve.Status
		if err := json.Unmarshal(b, &s); err != nil {
			return fmt.Errorf("run: %w", err)
		}
		l.steps.Add(p.steps)
		st.sample("obs.events_per_run", float64(uint64(s.Events)-events))
		events = uint64(s.Events)
		if log != nil {
			log.script = append(log.script, "run "+strings.Trim(strings.TrimPrefix(p.run, `{"steps":`), "}"))
		}
		if i%faultEvery == 0 {
			if _, err := l.do(r, st, "POST", base+"/fault", p.fault); err != nil {
				return err
			}
			if log != nil {
				var f serve.FaultRequest
				_ = json.Unmarshal([]byte(p.fault), &f) // a constant of this file
				log.script = append(log.script, "fault "+f.Kind)
			}
		}
		if _, err := l.do(r, st, "GET", base, ""); err != nil {
			return err
		}
		b, err = l.do(r, st, "GET", base+"/events?since="+strconv.Itoa(cursor), "")
		if err != nil {
			return err
		}
		cursor += bytes.Count(b, []byte("\n"))
		if log != nil {
			log.events.Write(b)
		}
		if i%scrapeEvery == 0 {
			for _, path := range []string{base + "/metrics", base + "/episodes", "/metrics"} {
				if _, err := l.do(r, st, "GET", path, ""); err != nil {
					return err
				}
			}
		}
	}
	b, err := l.do(r, st, "GET", base, "")
	if err != nil {
		return err
	}
	var s serve.Status
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("status: %w", err)
	}
	if _, err := l.do(r, st, "DELETE", base, ""); err != nil {
		return err
	}
	if sse {
		res := <-done
		pub := uint64(s.Events)
		st.check(res.delivered+res.dropped == pub, "session %s: SSE delivered %d + dropped %d != published %d",
			id, res.delivered, res.dropped, pub)
		l.published.Add(pub)
		l.delivered.Add(res.delivered)
		l.dropped.Add(res.dropped)
	}
	if log != nil {
		l.bridgeMu.Lock()
		l.bridge = log
		l.bridgeMu.Unlock()
	}
	return nil
}

func (l *serveLoad) pass(r rec, st *runStats) error {
	t0 := time.Now()
	l.tr.Store(r.tr)
	pub0 := l.published.Load()
	errs := make([]error, l.clients)
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, p := range servePlans {
				// Every pass replays the same sessions, so each pass
				// publishes the same events.
				seed := l.seed*sessionSeeds + residents + int64(c*len(servePlans)+i)
				if err := l.session(r, st, p, seed, c == 0); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	l.busy += time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	pub := l.published.Load() - pub0
	if l.passes == 0 {
		l.firstPub = pub
	} else {
		st.check(pub == l.firstPub, "pass %d published %d SSE frames, the first pass %d", l.passes+1, pub, l.firstPub)
	}
	l.passes++
	return nil
}

// replay runs a served session's script in batch, exactly as ssos-run
// sequences it, and returns the event stream it emits.
func replay(log *sessionLog) ([]byte, error) {
	img, ok := serve.LookupImage(log.image)
	if !ok {
		return nil, fmt.Errorf("no image %q", log.image)
	}
	sys, err := core.New(img.Cfg)
	if err != nil {
		return nil, err
	}
	col := obs.NewCollector()
	sys.Instrument(col)
	inj := fault.NewInjector(sys.M, log.seed)
	for _, op := range log.script {
		verb, arg, _ := strings.Cut(op, " ")
		if verb == "run" {
			n, err := strconv.Atoi(arg)
			if err != nil {
				return nil, err
			}
			sys.Run(n)
			continue
		}
		if err := serve.InjectFault(sys, inj, arg); err != nil {
			return nil, err
		}
	}
	var b bytes.Buffer
	err = col.WriteJSONL(&b)
	return b.Bytes(), err
}

func (l *serveLoad) finish(st *runStats) {
	for _, ep := range serveEndpoints {
		xs := st.get("serve." + ep + "_ms")
		st.setLayer("serve."+ep+"_ms_p50", percentile(xs, 50), "ms")
		st.setLayer("serve."+ep+"_ms_tail", percentile(xs, tailPercentile(len(xs), layerTailTop)), "ms")
		st.note("serve.%s_ms_tail is p%g of %d requests", ep, tailPercentile(len(xs), layerTailTop), len(xs))
	}
	st.setLayer("serve.transport_ms_p50", percentile(st.get("serve.transport_ms"), 50), "ms")
	st.setLayer("serve.sse_frames", float64(l.firstPub), "count")
	st.setLayer("serve.sse_dropped", float64(l.dropped.Load()), "count")
	st.setLayer("serve.sse_delivery", float64(l.delivered.Load())/float64(l.published.Load()), "ratio")
	st.setLayer("obs.events_per_run", median(st.get("obs.events_per_run")), "count")

	l.bridgeMu.Lock()
	log := l.bridge
	l.bridgeMu.Unlock()
	if log == nil {
		st.check(false, "no reinstall session completed, nothing to replay")
	} else {
		want, err := replay(log)
		st.check(err == nil && len(want) > 0 && bytes.Equal(want, log.events.Bytes()),
			"session seed %d: served /events (%d bytes) differ from the batch replay (%d bytes, err %v)",
			log.seed, log.events.Len(), len(want), err)
	}
	st.note("SSE published %d frames, %d per pass", l.published.Load(), l.firstPub)

	secs := l.busy.Seconds()
	ops := float64(len(st.get("serve.run_ms")))
	st.setHeadline("served_msteps_per_s", float64(l.steps.Load())/secs/1e6, "Msteps/s")
	st.setHeadline("runs_per_s", ops/secs, "1/s")
}

func (l *serveLoad) close() {
	if l.ts != nil {
		l.ts.Close()
	}
	if l.reg != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = l.reg.Shutdown(ctx) // every session is done; a timeout here only leaks this registry's workers
	}
	if l.client != nil {
		l.client.CloseIdleConnections()
	}
}
