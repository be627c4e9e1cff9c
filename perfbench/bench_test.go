package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n, top int
		want   float64
	}{
		{0, 99, 50}, {19, 99, 50}, {20, 99, 50}, {30, 99, 66}, {100, 99, 90}, {999, 99, 98}, {1000, 99, 99},
		{100000, 99, 99}, {30, 90, 66}, {99, 90, 89}, {100, 90, 90}, {100000, 90, 90},
	} {
		if got := tailPercentile(c.n, c.top); got != c.want {
			t.Errorf("tailPercentile(%d, %d) = %g, want %g", c.n, c.top, got, c.want)
		}
		if c.n >= 20 {
			if beyond := c.n - rank(c.n, c.want); beyond < minBeyond {
				t.Errorf("n=%d: p%g leaves %d samples beyond, want >= %d", c.n, c.want, beyond, minBeyond)
			}
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	if got := percentile(xs, tailPercentile(len(xs), layerTailTop)); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990 (ten samples beyond)", got)
	}
	if got := percentile(xs, tailPercentile(len(xs), opTailTop)); got != 900 {
		t.Errorf("p90 of 1..1000 = %g, want 900", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the spread rule checkers apply to the results.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Layer: "bench", Start: ms(0), End: ms(100)},
		// Two overlapping children: together they cover 10..60.
		{ID: 2, Parent: 1, Layer: "http", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Layer: "http", Start: ms(30), End: ms(60)},
		// A grandchild, and one that overhangs its parent's end.
		{ID: 4, Parent: 2, Layer: "serve", Start: ms(15), End: ms(25)},
		{ID: 5, Parent: 3, Layer: "serve", Start: ms(50), End: ms(70)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench": ms(50),          // 100 - 50 covered
		"http":  ms(20) + ms(20), // 30-10, 30-10 (clipped 50..60)
		"serve": ms(10) + ms(20), // leaves keep their whole duration
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		bound float64
		want  string
	}{
		{"same", steady, []float64{101, 100, 99, 102, 100, 100, 98, 101, 100, 99}, true, 0.1, "same"},
		{"worse", steady, []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, true, 0.1, "worse"},
		{"better", steady, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, true, 0.1, "better"},
		{"higher is better", steady, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, false, 0.1, "worse"},
		{"unresolved", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, []float64{110, 105, 100, 120, 100, 95, 130, 90, 110, 100}, true, 0.1, "unresolved"},
		{"better beats noise", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, []float64{50, 50, 50, 50, 50, 50, 50, 50, 50, 50}, true, 0.1, "better"},
		{"no bound", steady, []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, true, -1, "-"},
	} {
		a, b := summarize(c.a), summarize(c.b)
		wins := 0
		for i := range c.a {
			if (c.lower && c.b[i] < c.a[i]) || (!c.lower && c.b[i] > c.a[i]) {
				wins++
			}
		}
		if got := verdict(a, b, wins, len(c.a), c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// benchmarkJSON is BENCHMARK.json as the benchmark's contract fixes it.
type benchmarkJSON struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workloadJS `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type workloadJS struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want 6", len(keys))
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONNames(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("invalid name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range b.Workloads {
		use(w.Name)
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range b.EndToEnd {
		use(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in s, lower is better")
	}
	for _, m := range append(append([]specMetric(nil), b.EndToEnd...), b.PerLayer...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range b.PerLayer {
		use(m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer %s has a bound", m.Name)
		}
		if targetOf(m.Name) == "" {
			t.Errorf("per-layer %s has no recorded target", m.Name)
		}
	}
}

// tiny builds each workload at a size that runs in seconds.
func tiny(name string) workload {
	switch name {
	case "suite":
		return &suite{trials: 1}
	case "engine":
		return &engine{chunk: 1 << 12}
	}
	w, _ := newWorkload(name)
	return w
}

func names[M any](m map[string]M) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at a tiny size, untraced and in the
// traced sweep, and checks that its self-checks pass and that the two
// runs report exactly the metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkJSON(t)
	var e2e, layers []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	swept := map[string]metric{}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			rec := record{Workload: name, Seed: 3}
			if err := measure(&rec, time.Nanosecond, func() workload { return tiny(name) }, io.Discard); err != nil {
				t.Fatal(err)
			}
			if rec.Attempted == 0 || rec.Failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", rec.Attempted, rec.Failed, rec.Failures)
			}
			if got := names(rec.Metrics); strings.Join(got, " ") != strings.Join(e2e, " ") {
				t.Errorf("end-to-end metrics %v, want %v", got, e2e)
			}
			for n, m := range rec.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %g, want > 0", n, m.Value)
				}
			}
			st, passes, err := sweepOne(tiny(name), name, 3, time.Nanosecond, newTracer(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if passes != 2 {
				t.Errorf("traced sweep ran %d passes, want 1 untraced + 1 traced", passes)
			}
			if st.failed != 0 {
				t.Fatalf("traced: %v", st.failures)
			}
			for n, m := range st.layer {
				swept[n] = m
			}
		})
	}
	if t.Failed() {
		return
	}
	if got := names(swept); strings.Join(got, " ") != strings.Join(layers, " ") {
		t.Errorf("traced sweep reports %v\nBENCHMARK.json lists %v", got, layers)
	}
}

// TestAssembleGuestsMatchesCoreCache checks that set-up assembles every
// guest builder core's build cache does, so none escapes setup_s.
func TestAssembleGuestsMatchesCoreCache(t *testing.T) {
	builders := func(path, from string) []string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(b)
		i := strings.Index(src, from)
		if i < 0 {
			t.Fatalf("%s: no %q", path, from)
		}
		body, _, _ := strings.Cut(src[i:], "\n}\n")
		var names []string
		for _, m := range regexp.MustCompile(`guest\.(Build\w+)\(`).FindAllStringSubmatch(body, -1) {
			names = append(names, m[1])
		}
		sort.Strings(names)
		return names
	}
	want := builders("../internal/core/cache.go", "func buildAll()")
	got := builders("suite.go", "func assembleGuests()")
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("assembleGuests builds %v\ncore buildAll builds %v", got, want)
	}
}

// TestHostClock checks the calibration clock: a nil clock scales
// nothing, marks closer than calGap are skipped, and the factors are the
// marks' mean speed and pace.
func TestHostClock(t *testing.T) {
	var none *hostClock
	none.mark()
	if speed, pace := none.factors(); speed != 1 || pace != 1 {
		t.Errorf("nil clock factors = %g, %g; want 1, 1", speed, pace)
	}
	c := &hostClock{}
	c.mark()
	c.mark() // within calGap of the first: skipped
	if n := c.marks(); n != 1 {
		t.Fatalf("%d marks after two calls within calGap, want 1", n)
	}
	if wall, cpu := c.spent(); wall <= 0 || cpu <= 0 {
		t.Errorf("marks spent %v wall, %v CPU; want both > 0", wall, cpu)
	}
	if speed, pace := c.factors(); !(speed > 0 && pace > 0) {
		t.Errorf("factors = %g, %g; want both > 0", speed, pace)
	}
	c.speed, c.pace = []float64{0.5, 1, 3}, []float64{1, 2}
	if speed, pace := c.factors(); speed != 1.5 || pace != 1.5 {
		t.Errorf("factors = %g, %g; want the means 1.5, 1.5", speed, pace)
	}
}
