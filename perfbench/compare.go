package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads every result.json under dir, in the order the runs
// started.
func loadRecords(dir string) ([]record, error) {
	var out []record
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "result.json" {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
		return nil
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].Started < out[j].Started })
	return out, err
}

// side summarizes one side's values of a metric.
type side struct {
	n           int
	med, q1, q3 float64
	spread      float64 // (q3-q1)/median
	lo, hi      float64
}

func summarize(xs []float64) side {
	s := side{n: len(xs), med: median(xs)}
	s.q1, s.q3 = quartiles(xs)
	s.spread = (s.q3 - s.q1) / s.med
	srt := sorted(xs)
	s.lo, s.hi = srt[0], srt[len(srt)-1]
	return s
}

// verdict judges B (the change) against A (the parent) for one metric.
// lower says whether lower values are better; bound is the share of A's
// median by which B may be worse (negative when the metric has none).
//
//   - "unresolved": A's own spread is wider than the bound, and B is not
//     better in every run;
//   - "worse": B's median is worse than A's by more than the bound;
//   - "better": B wins at least nine tenths of the pairs and the medians
//     differ by more than A's interquartile distance;
//   - "same" otherwise, and "-" for a metric without a bound.
func verdict(a, b side, wins, pairs int, lower bool, bound float64) string {
	worse := (b.med - a.med) / a.med // the share by which B is worse
	if !lower {
		worse = -worse
	}
	allBetter := (lower && b.hi < a.lo) || (!lower && b.lo > a.hi)
	better := pairs > 0 && wins*10 >= pairs*9 && math.Abs(b.med-a.med) > a.q3-a.q1 && worse < 0
	switch {
	case bound < 0:
		if better {
			return "better"
		}
		return "-"
	case allBetter && better:
		return "better"
	case a.spread > bound:
		return "unresolved"
	case worse > bound:
		return "worse"
	case better:
		return "better"
	}
	return "same"
}

// compareMain: perfbench compare [--spec BENCHMARK.json] A_DIR B_DIR.
func compareMain(args []string, w io.Writer) int {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fl.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fl.Parse(args); err != nil || fl.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--spec BENCHMARK.json] A_DIR B_DIR")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	a, err := loadRecords(fl.Arg(0))
	if err == nil {
		var b []record
		b, err = loadRecords(fl.Arg(1))
		if err == nil {
			compare(w, spec, a, b)
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// compare prints, per workload and metric, each side's median and
// quartiles, B's wins over the runs paired in start order, and the
// verdict against the bound in spec.
func compare(w io.Writer, spec *benchSpec, a, b []record) {
	meta := map[string]specMetric{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		meta[m.Name] = m
	}
	type key struct {
		workload string
		trace    int
	}
	group := func(rs []record) map[key][]record {
		g := map[key][]record{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	ga, gb := group(a), group(b)
	keys := make([]key, 0, len(ga))
	for k := range ga {
		if _, ok := gb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].trace < keys[j].trace
	})
	fmt.Fprintf(w, "%-8s %-34s %5s %-30s %-30s %6s %s\n", "workload", "metric", "unit",
		"A median [q1,q3]", "B median [q1,q3]", "B wins", "verdict")
	for _, k := range keys {
		ra, rb := ga[k], gb[k]
		names := map[string]bool{}
		for _, r := range ra {
			for n := range r.Metrics {
				names[n] = true
			}
			for n := range r.Headline {
				names[n] = true
			}
		}
		sortedNames := make([]string, 0, len(names))
		for n := range names {
			sortedNames = append(sortedNames, n)
		}
		sort.Strings(sortedNames)
		for _, n := range sortedNames {
			va, vb := values(ra, n), values(rb, n)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			m, known := meta[n]
			lower := !known || m.Better != "higher"
			bound := -1.0
			if known && m.Bound != nil {
				bound = *m.Bound
			}
			wins, pairs := 0, min(len(va), len(vb))
			for i := 0; i < pairs; i++ {
				if (lower && vb[i] < va[i]) || (!lower && vb[i] > va[i]) {
					wins++
				}
			}
			sa, sb := summarize(va), summarize(vb)
			unit := unitOf(ra, n)
			fmt.Fprintf(w, "%-8s %-34s %5s %-30s %-30s %3d/%-2d %s\n", k.workload, n, unit,
				fmtSide(sa), fmtSide(sb), wins, pairs, verdict(sa, sb, wins, pairs, lower, bound))
		}
	}
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		} else if m, ok := r.Headline[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func unitOf(rs []record, name string) string {
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			return m.Unit
		}
		if m, ok := r.Headline[name]; ok {
			return m.Unit
		}
	}
	return ""
}

func fmtSide(s side) string {
	return fmt.Sprintf("%.4g [%.4g,%.4g] n=%d", s.med, s.q1, s.q3, s.n)
}

// abMain: perfbench ab --a CHECKOUT_A --b CHECKOUT_B --workload W
// [--rounds N] [--seconds S] [--seed S0] [--out DIR]. It runs each
// checkout's benchmark in turn, swapping which side goes first every
// round (both sides of a round use the same seed), then compares.
func abMain(args []string, w io.Writer) int {
	fl := flag.NewFlagSet("ab", flag.ContinueOnError)
	dirA := fl.String("a", "", "checkout of the parent commit")
	dirB := fl.String("b", "", "checkout of the change")
	name := fl.String("workload", "", "workload to run")
	rounds := fl.Int("rounds", 10, "alternating rounds")
	seconds := fl.Int("seconds", 20, "seconds per run")
	seed := fl.Int64("seed", 1, "seed of the first round; round i uses seed+i")
	out := fl.String("out", "ab-out", "directory for both sides' result records")
	if err := fl.Parse(args); err != nil || *dirA == "" || *dirB == "" || *name == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench ab --a CHECKOUT_A --b CHECKOUT_B --workload W [--rounds N] [--seconds S] [--seed S0] [--out DIR]")
		return 2
	}
	outAbs, err := filepath.Abs(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for i := 0; i < *rounds; i++ {
		sides := []struct{ label, dir string }{{"a", *dirA}, {"b", *dirB}}
		if i%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, s := range sides {
			cmd := exec.Command("bash", "perfbench/run.sh", "--workload", *name,
				"--seed", strconv.FormatInt(*seed+int64(i), 10), "--seconds", strconv.Itoa(*seconds),
				"--trace", "0", "--out", filepath.Join(outAbs, s.label))
			cmd.Dir = s.dir
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: round %d side %s: %v\n", i, s.label, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "perfbench: round %d side %s done\n", i, s.label)
		}
	}
	return compareMain([]string{"--spec", filepath.Join(*dirB, "BENCHMARK.json"),
		filepath.Join(outAbs, "a"), filepath.Join(outAbs, "b")}, w)
}
