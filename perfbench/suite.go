package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"ssos/internal/core"
	"ssos/internal/expt"
	"ssos/internal/guest"
)

// suite runs the paper's experiments E1-E15 in expt.All order, quick
// mode, one expt.E* call at a time. A pass is one full sweep and one
// operation, the report. Its self-check: every pass of a run
// renders a byte-identical report (same seed, same report).
type suite struct {
	trials int // trials per cell; 0 keeps quick mode's own counts
	opts   expt.Options
	digest string // report digest of the first pass
}

// experiment is one expt call, rendered as the report text it adds.
type experiment struct {
	id  string
	run func(o expt.Options) string
}

func tables(ts ...*expt.Table) string {
	s := ""
	for _, t := range ts {
		s += t.Render()
	}
	return s
}

func series(ss ...*expt.Series) string {
	s := ""
	for _, f := range ss {
		s += f.Render()
	}
	return s
}

// experiments lists E1-E15 in expt.All order. E6 includes its fairness
// figure, which expt.All also runs.
var experiments = []experiment{
	{"E1", func(o expt.Options) string { return tables(expt.E1RAMCorruption(o)) }},
	{"E2", func(o expt.Options) string { t, f := expt.E2ArbitraryState(o); return tables(t) + series(f) }},
	{"E3", func(o expt.Options) string { t, f := expt.E3FaultRateComparison(o); return tables(t) + series(f) }},
	{"E4", func(o expt.Options) string { return tables(expt.E4MonitorRepair(o)) }},
	{"E5", func(o expt.Options) string { t, f := expt.E5PeriodSweep(o); return tables(t) + series(f) }},
	{"E6", func(o expt.Options) string {
		return tables(expt.E6Primitive(o)) + series(expt.E6FairnessFigure(o))
	}},
	{"E7", func(o expt.Options) string { return tables(expt.E7Scheduler(o)) }},
	{"E8", func(o expt.Options) string { t, f := expt.E8Overhead(o); return tables(t) + series(f) }},
	{"E9", func(o expt.Options) string { t, f := expt.E9Checkpoint(o); return tables(t) + series(f) }},
	{"E10", func(o expt.Options) string { return tables(expt.E10TokenRing(o)) }},
	{"E11", func(o expt.Options) string { return tables(expt.E11Protection(o)) }},
	{"E12", func(o expt.Options) string { return tables(expt.E12AdaptiveWatchdog(o)) }},
	{"E13", func(o expt.Options) string { return tables(expt.E13TickfulSilentFaults(o)) }},
	{"E14", func(o expt.Options) string {
		t, f, fb := expt.E14ClusterAvailability(o)
		return tables(t) + series(f, fb)
	}},
	{"E15", func(o expt.Options) string { t, f := expt.E15LayeredRings(o); return tables(t) + series(f) }},
}

// assembleGuests assembles every guest program the experiments run,
// bypassing core's process-wide build cache so each set-up pays the
// full assembly cost. The list must match buildAll in
// internal/core/cache.go; TestAssembleGuestsMatchesCoreCache checks it.
func assembleGuests() error {
	padded, err := guest.BuildKernel(true)
	if err != nil {
		return err
	}
	steps := []func() error{
		func() error { _, err := guest.BuildKernel(false); return err },
		func() error { _, err := guest.BuildTickfulKernel(); return err },
		func() error { _, err := guest.BuildReinstallHandler(); return err },
		func() error { _, err := guest.BuildContinueHandler(); return err },
		func() error { _, err := guest.BuildMonitorHandler(padded); return err },
		func() error { _, err := guest.BuildCheckpointHandler(); return err },
		func() error { _, err := guest.BuildScheduler(false); return err },
		func() error { _, err := guest.BuildScheduler(true); return err },
		func() error {
			_, err := guest.BuildSchedulerOpts(guest.SchedOptions{ValidateDS: true, Protect: true})
			return err
		},
		func() error { _, err := guest.BuildProcesses(); return err },
		func() error { _, err := guest.BuildRingProcesses(); return err },
		func() error { _, err := guest.BuildPrimitive(); return err },
	}
	for _, v := range guest.RingVariants() {
		v := v
		steps = append(steps, func() error { _, err := guest.BuildMailboxProcesses(v); return err })
	}
	for _, f := range steps {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// newEveryApproach builds one system per approach, which also fills
// core's lazy build cache.
func newEveryApproach() error {
	for a := core.ApproachBaseline; a <= core.ApproachCheckpoint; a++ {
		if _, err := core.New(core.Config{Approach: a}); err != nil {
			return fmt.Errorf("core.New(%v): %w", a, err)
		}
	}
	return nil
}

func (s *suite) setup(seed int64) error {
	s.opts = expt.Options{Quick: true, Seed: seed, Trials: s.trials}
	s.digest = ""
	if err := assembleGuests(); err != nil {
		return err
	}
	return newEveryApproach()
}

func (s *suite) pass(r rec, st *runStats) error {
	h := sha256.New()
	var report time.Duration
	for _, e := range experiments {
		var text string
		c0 := cpuTime()
		d, _ := r.call("expt", e.id, func(rec) error {
			text = e.run(s.opts)
			return nil
		})
		report += d
		st.sample("expt."+e.id+"_s", d.Seconds())
		st.sample("expt."+e.id+"_cpu_s", (cpuTime() - c0).Seconds())
		h.Write([]byte(text))
		st.mark() // an experiment takes up to seconds; the host's speed moves within a pass
	}
	// An operation is the whole report, as one ssos-bench -quick run
	// makes it: the experiments' times depend on the seed, so the median
	// experiment would change with it more than any bound allows.
	st.op(report)
	sum := hex.EncodeToString(h.Sum(nil))
	if s.digest == "" {
		s.digest = sum
		st.note("report digest %s", sum[:16])
		return nil
	}
	st.check(sum == s.digest, "report digest %s differs from the first pass's %s", sum[:16], s.digest[:16])
	return nil
}

func (s *suite) finish(st *runStats) {
	var wall, cpu float64
	for _, e := range experiments {
		w, c := median(st.get("expt."+e.id+"_s")), median(st.get("expt."+e.id+"_cpu_s"))
		st.setLayer("expt."+e.id+"_s", w, "s")
		st.setLayer("expt."+e.id+"_cpu_s", c, "s")
		wall += w
		cpu += c
	}
	workers := runtime.GOMAXPROCS(0)
	st.setLayer("pool.util", cpu/(wall*float64(workers)), "ratio")
	st.setHeadline("suite.wall_s", wall, "s")
	st.setHeadline("suite.cpu_s", cpu, "s")
	// A single pass has nothing to repeat against; the digest is then
	// checked against a second rendering of the cheapest experiment.
	if len(st.get("expt.E1_s")) == 1 {
		a := experiments[0].run(s.opts)
		b := experiments[0].run(s.opts)
		st.check(a == b, "E1 report differs between two runs of seed %d", s.opts.Seed)
	}
}

func (s *suite) close() {}
