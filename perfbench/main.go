// Command perfbench is the repository benchmark: it times the paper's
// experiment suite, the step engine, served sessions and the
// convergence certificates, end to end and layer by layer.
//
//	perfbench --workload suite|engine|serve|certify --seed N --seconds S --trace 0|1
//	perfbench compare A_DIR B_DIR
//	perfbench ab --a CHECKOUT_A --b CHECKOUT_B --workload W --rounds N
//
// A run runs whole passes of the workload's fixed unit of work until
// --seconds of passes have elapsed, sets the workload up several times
// in between (setup_s is the median), checks the program's outputs, and
// prints one JSON result line last. End-to-end times are scaled to a
// reference host speed read from calibration marks taken during the
// run (calib.go). With --trace 0 it reports the end-to-end
// metrics of the named workload. With --trace 1 it sweeps every
// workload, alternating untraced and traced passes, and reports every
// per-layer metric, each layer's self time and the tracing overhead; it
// also writes the spans and a CPU profile whose samples carry
// layer=<layer> and workload=<workload> labels. Every run writes a
// result record with the host facts under .bench_out/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupReps = 15

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup builds everything the passes use from the seed. It runs
	// several times; each call replaces the previous build.
	setup(seed int64) error
	// pass runs one fixed unit of work, timing each call into the
	// program through r and recording operations and checks in st.
	pass(r rec, st *runStats) error
	// finish runs the end-of-run self-checks and adds the layer
	// metrics and the workload's headline figures to st.
	finish(st *runStats)
	// close releases what setup built.
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "suite":
		return &suite{}, nil
	case "engine":
		return &engine{}, nil
	case "serve":
		return &serveLoad{}, nil
	case "certify":
		return &certify{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want suite, engine, serve or certify)", name)
}

// workloadNames lists the workloads in sweep order.
var workloadNames = []string{"suite", "engine", "serve", "certify"}

// runStats collects one run's samples and check outcomes. Methods are
// safe for concurrent use.
type runStats struct {
	clock     *hostClock // an untraced run's calibration marks; nil in the traced sweep
	mu        sync.Mutex
	ops       []time.Duration      // the workload's unit calls
	samples   map[string][]float64 // per named layer call, in its own unit
	attempted int
	failed    int
	failures  []string
	layer     map[string]metric // per-layer metrics
	headline  map[string]metric // the workload's own end-to-end figures
	notes     []string
}

func newRunStats() *runStats {
	return &runStats{samples: map[string][]float64{}, layer: map[string]metric{}, headline: map[string]metric{}}
}

// check counts one correctness check, recording a failure message when
// ok is false.
func (s *runStats) check(ok bool, format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if !ok {
		s.failed++
		if len(s.failures) < 20 {
			s.failures = append(s.failures, fmt.Sprintf(format, args...))
		}
	}
}

func (s *runStats) op(d time.Duration) {
	s.mu.Lock()
	s.ops = append(s.ops, d)
	s.mu.Unlock()
}

// mark takes a calibration mark between two operations, for workloads
// whose passes are long. It must not be called while an operation runs.
func (s *runStats) mark() { s.clock.mark() }

func (s *runStats) sample(name string, v float64) {
	s.mu.Lock()
	s.samples[name] = append(s.samples[name], v)
	s.mu.Unlock()
}

func (s *runStats) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.samples[name]...)
}

func (s *runStats) setLayer(name string, v float64, unit string) {
	s.mu.Lock()
	s.layer[name] = metric{v, unit}
	s.mu.Unlock()
}

func (s *runStats) setHeadline(name string, v float64, unit string) {
	s.mu.Lock()
	s.headline[name] = metric{v, unit}
	s.mu.Unlock()
}

func (s *runStats) note(format string, args ...any) {
	s.mu.Lock()
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// host describes the machine a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os_arch"`
}

func hostFacts() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// record is the full result of one run, written under .bench_out/.
// compare reads these files.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     int               `json:"trace"`
	Host      host              `json:"host"`
	Started   string            `json:"started"`
	Passes    int               `json:"passes"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Headline  map[string]metric `json:"headline,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Files     []string          `json:"files,omitempty"` // written beside result.json
	// Targets names, per per-layer metric, the workload and end-to-end
	// metrics it should move.
	Targets map[string]string `json:"targets,omitempty"`
}

// line is the result line printed last on standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "ab":
			os.Exit(abMain(os.Args[2:], os.Stdout))
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: suite, engine, serve or certify")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced layer sweep with per-layer metrics")
	out := fs.String("out", ".bench_out", "directory for result records, spans and profiles")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if _, err := newWorkload(*name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res := record{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Host: hostFacts(), Started: time.Now().UTC().Format(time.RFC3339)}
	dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d-%d", *name, *seed, *trace, time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var err error
	budget := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		err = measure(&res, budget, func() workload { w, _ := newWorkload(*name); return w }, os.Stderr)
	} else {
		err = sweep(&res, budget, dir, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := finishRecord(&res, dir, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// finishRecord writes the record file, prints every metric as a
// readable line and the result line last.
func finishRecord(res *record, dir string, w io.Writer) error {
	res.Correct = res.Failed == 0 && res.Attempted > 0
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s seed %d trace %d passes %d on %d CPUs (%s, %s)\n",
		res.Workload, res.Seed, res.Trace, res.Passes, res.Host.NProc, res.Host.CPU, res.Host.GoVersion)
	for _, n := range res.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	fmt.Fprintf(w, "  %-40s %g (%d failed of %d attempted)\n", "failed_ratio",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	printMetrics(w, "", res.Metrics)
	printMetrics(w, "headline ", res.Headline)
	fmt.Fprintln(w, "  record:", filepath.Join(dir, "result.json"))
	b, err = json.Marshal(line{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}

func printMetrics(w io.Writer, prefix string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %.6g %s\n", prefix+n, m[n].Value, m[n].Unit)
	}
}

// measure runs a workload untraced and reports its end-to-end metrics.
// mk builds a fresh, unset-up workload; every set-up starts from one.
// The first set-up builds the workload the passes run; the others build
// throwaway copies between passes, spread evenly over the measured
// phase, so host drift lands on set-ups as it does on passes.
// Calibration marks follow set-ups and passes (and operations, in
// workloads whose passes are long), and every time reported is scaled
// to reference speed (see calib.go).
func measure(res *record, budget time.Duration, mk func() workload, log io.Writer) error {
	clk := &hostClock{}
	setups := make([]float64, 0, setupReps)
	setUp := func() (workload, error) {
		w := mk()
		// Each set-up starts from a collected heap, so earlier garbage
		// is not charged to it.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(res.Seed); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		clk.mark()
		return w, nil
	}
	w, err := setUp()
	if err != nil {
		return err
	}
	defer w.close()
	st := newRunStats()
	st.clock = clk
	var walls, cpus []float64
	var busy time.Duration // time spent in passes, marks excluded
	for len(walls) == 0 || busy < budget {
		mw0, mc0 := clk.spent()
		c0, t0 := cpuTime(), time.Now()
		if err := w.pass(rec{}, st); err != nil {
			return fmt.Errorf("pass %d: %w", len(walls)+1, err)
		}
		d, c := time.Since(t0), cpuTime()-c0
		mw, mc := clk.spent()
		d, c = d-(mw-mw0), c-(mc-mc0)
		busy += d
		walls = append(walls, d.Seconds())
		cpus = append(cpus, c.Seconds())
		clk.mark()
		// Set-up k runs once the passes have used k/setupReps of the
		// budget; the last pass leaves every one due.
		for len(setups) < setupReps && busy >= budget*time.Duration(len(setups))/setupReps {
			extra, err := setUp()
			if err != nil {
				return err
			}
			extra.close()
			runtime.GC() // its garbage is not charged to the next pass
		}
	}
	w.finish(st)
	fmt.Fprintf(log, "perfbench: %s: %d passes in %.1fs\n", res.Workload, len(walls), busy.Seconds())

	ops := make([]float64, len(st.ops))
	for i, d := range st.ops {
		ops[i] = ms(d)
	}
	tail := tailPercentile(len(ops), opTailTop)
	raw := map[string]metric{
		"setup_s":    {median(setups), "s"},
		"wall_s":     {median(walls), "s"},
		"cpu_s":      {median(cpus), "s"},
		"op_p50_ms":  {percentile(ops, 50), "ms"},
		"op_tail_ms": {percentile(ops, tail), "ms"},
		"ops_per_s":  {float64(len(ops)) / busy.Seconds(), "1/s"},
	}
	speed, pace := clk.factors()
	res.Passes = len(walls)
	res.Metrics = map[string]metric{"max_rss_mb": {maxRSSMB(), "MB"}}
	res.Headline = st.headline
	for n, m := range raw {
		res.Headline["raw."+n] = m
		switch n {
		case "cpu_s":
			m.Value *= speed
		case "ops_per_s":
			m.Value /= pace
		default:
			m.Value *= pace
		}
		res.Metrics[n] = m
	}
	res.Headline["host.speed"] = metric{speed, "ratio"}
	res.Headline["host.pace"] = metric{pace, "ratio"}
	markWall, _ := clk.spent()
	res.Notes = append(st.notes,
		fmt.Sprintf("times are at reference speed: %d calibration marks (%.3g s) read a mean speed of %.4g and pace of %.4g; raw.* are as measured",
			clk.marks(), markWall.Seconds(), speed, pace),
		fmt.Sprintf("op_tail_ms is p%g of %d operations; setup_s is the median of %d set-ups (%.4g-%.4g s as measured)",
			tail, len(ops), setupReps, slices.Min(setups), slices.Max(setups)))
	res.Attempted, res.Failed, res.Failures = st.attempted, st.failed, st.failures
	return nil
}

// sweep is the traced run: every workload in turn (the named one first,
// for the whole budget; the others for a quarter of it), alternating an
// untraced and a traced pass so host drift lands on both alike. It
// reports every per-layer metric, each workload's per-pass layer self
// times and its tracing overhead (traced over untraced median pass
// wall time, minus one), and writes spans.json and cpu.pprof into dir.
func sweep(res *record, budget time.Duration, dir string, log io.Writer) error {
	order := []string{res.Workload}
	for _, n := range workloadNames {
		if n != res.Workload {
			order = append(order, n)
		}
	}
	prof, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return err
	}
	profiling := true
	defer func() {
		if profiling {
			pprof.StopCPUProfile()
		}
	}()

	tr := newTracer()
	res.Metrics = map[string]metric{}
	for i, name := range order {
		b := budget
		if i > 0 {
			b = budget / 4
		}
		w, err := newWorkload(name)
		if err != nil {
			return err
		}
		st, passes, err := sweepOne(w, name, res.Seed, b, tr, log)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if i == 0 {
			res.Passes = passes
		}
		res.Attempted += st.attempted
		res.Failed += st.failed
		for _, f := range st.failures {
			res.Failures = append(res.Failures, name+": "+f)
		}
		for _, n := range st.notes {
			res.Notes = append(res.Notes, name+": "+n)
		}
		for k, v := range st.layer {
			res.Metrics[k] = v
		}
	}
	pprof.StopCPUProfile()
	profiling = false
	if err := prof.Close(); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(dir, "spans.json"), tr.snapshot()); err != nil {
		return err
	}
	res.Files = []string{"cpu.pprof", "spans.json"} // beside result.json
	res.Targets = map[string]string{}
	for n := range res.Metrics {
		res.Targets[n] = targetOf(n)
	}
	fmt.Fprintln(log, "perfbench: profile: go tool pprof -tagfocus layer=core", filepath.Join(dir, "cpu.pprof"))
	return nil
}

// traceLayers names, per workload, the layers its spans are recorded
// in; bench is the benchmark's own pass loop around them.
var traceLayers = map[string][]string{
	"suite":   {"bench", "expt"},
	"engine":  {"bench", "core", "cluster"},
	"serve":   {"bench", "http", "serve"},
	"certify": {"bench", "guest", "imglint", "model"},
}

// sweepOne is one workload's phase of the traced run. It returns the
// number of passes it ran, untraced and traced together.
func sweepOne(w workload, name string, seed int64, budget time.Duration, tr *tracer, log io.Writer) (*runStats, int, error) {
	var err error
	var passes int
	st := newRunStats()
	pprof.Do(context.Background(), pprof.Labels("workload", name), func(ctx context.Context) {
		if err = w.setup(seed); err != nil {
			err = fmt.Errorf("setup: %w", err)
			return
		}
		defer w.close()
		var plain, traced []float64
		before := len(tr.snapshot())
		start := time.Now()
		for len(traced) == 0 || time.Since(start) < budget {
			t0 := time.Now()
			if err = w.pass(rec{}, st); err != nil {
				return
			}
			plain = append(plain, time.Since(t0).Seconds())
			t0 = time.Now()
			_, err = rec{tr: tr, ctx: ctx}.call("bench", name+".pass", func(r rec) error { return w.pass(r, st) })
			if err != nil {
				return
			}
			traced = append(traced, time.Since(t0).Seconds())
		}
		w.finish(st)
		self := selfTimes(tr.snapshot()[before:])
		for _, l := range traceLayers[name] {
			st.setLayer(fmt.Sprintf("trace.%s.self_ms.%s", name, l),
				ms(self[l])/float64(len(traced)), "ms")
		}
		st.setLayer("trace."+name+".overhead", median(traced)/median(plain)-1, "ratio")
		passes = len(plain) + len(traced)
		st.note("%d untraced + %d traced passes", len(plain), len(traced))
		fmt.Fprintf(log, "perfbench: sweep %s: %d untraced + %d traced passes in %.1fs\n",
			name, len(plain), len(traced), time.Since(start).Seconds())
	})
	return st, passes, err
}
