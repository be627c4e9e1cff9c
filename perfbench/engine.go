package main

import (
	"fmt"
	"time"

	"ssos/internal/cluster"
	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/machine"
	"ssos/internal/obs"
)

// engine isolates the step engine: long steady-state runs with no
// per-trial construction and no reads. Every slice is advanced one
// fixed chunk per round, round-robin, so host drift lands on all of
// them alike; a pass is one round and an operation is one round.
//
// The slices cover the engine's paths: baseline is the superblock
// turbo lane (no tickers, no hook); reinstall, monitor, scheduler,
// tickful and mbox run with watchdog or timer tickers; rate adds a
// fault.Injector.Rate hook (the AfterStep fallback); probed attaches an
// obs collector. A fault-free reinstall cluster and a K-state ring
// fleet measure the replicated layer.
type engine struct {
	chunk  int // steps per slice per round; 0 means engineChunk
	seed   int64
	slices []*slice
	clu    *cluster.Cluster
	fleet  *cluster.RingFleet
	rounds int
}

// slice is one machine configuration under measurement.
type slice struct {
	name  string
	cfg   core.Config
	rate  bool // attach a Rate fault hook
	probe bool // attach an obs collector
	chunk int  // steps per round, as a multiple of the engine's chunk

	sys   *core.System
	start machine.Stats // counters when the measured phase began
	first machine.Stats // counters after the first round
	legal bool          // heartbeat verdict after the first round
	ns    time.Duration // time spent in Run during the measured phase
	steps uint64        // steps run during the measured phase
}

const (
	// engineChunk is the steps each machine slice runs per round. A
	// few to a few tens of milliseconds per chunk keeps timer reads
	// negligible and the round short enough to interleave finely.
	engineChunk = 1 << 20
	// engineBoot runs every slice past boot before measuring.
	engineBoot = 100_000
	// rateP is the per-step fault probability of the rate slice: about
	// one random fault per million steps, so the hook draws on every
	// step while the guest spends nearly all its time stable.
	rateP = 1e-6
	// consoleCap bounds retained heartbeat writes so memory stays flat
	// however long the run is.
	consoleCap = 4096
	// fleetRuns is how many RingFleet.Run(DefaultRelayEvery) calls a
	// round makes, and clusterReplicas the cluster's size.
	fleetRuns       = 64
	clusterReplicas = 5
)

func engineSlices() []*slice {
	return []*slice{
		{name: "baseline", cfg: core.Config{Approach: core.ApproachBaseline}, chunk: 2},
		{name: "reinstall", cfg: core.Config{Approach: core.ApproachReinstall}, chunk: 1},
		{name: "monitor", cfg: core.Config{Approach: core.ApproachMonitor}, chunk: 1},
		{name: "scheduler", cfg: core.Config{Approach: core.ApproachScheduler}, chunk: 1},
		{name: "tickful", cfg: core.Config{Approach: core.ApproachReinstall, TickfulKernel: true}, chunk: 1},
		{name: "mbox", cfg: core.Config{Approach: core.ApproachScheduler, Workload: core.WorkloadMailboxKState}, chunk: 1},
		{name: "rate", cfg: core.Config{Approach: core.ApproachReinstall}, rate: true, chunk: 1},
		{name: "probed", cfg: core.Config{Approach: core.ApproachReinstall}, probe: true, chunk: 1},
	}
}

// build constructs and boots the slice's system.
func (s *slice) build(seed int64) (*core.System, error) {
	cfg := s.cfg
	cfg.ConsoleCap = consoleCap
	sys, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("slice %s: %w", s.name, err)
	}
	if s.rate {
		fault.NewInjector(sys.M, seed).Rate(rateP)
	}
	if s.probe {
		sys.Instrument(obs.NewCollector())
	}
	sys.Run(engineBoot)
	return sys, nil
}

func (e *engine) setup(seed int64) error {
	e.seed, e.rounds = seed, 0
	if err := assembleGuests(); err != nil {
		return err
	}
	chunk := e.chunk
	if chunk == 0 {
		chunk = engineChunk
	}
	e.slices = engineSlices()
	for _, s := range e.slices {
		s.chunk *= chunk
		sys, err := s.build(seed)
		if err != nil {
			return err
		}
		s.sys = sys
		s.start = sys.M.Stats
	}
	var err error
	e.clu, err = cluster.New(cluster.Config{Replicas: clusterReplicas, Approach: core.ApproachReinstall, Seed: seed})
	if err != nil {
		return err
	}
	e.fleet, err = cluster.NewRingFleet(cluster.RingFleetConfig{Variant: guest.VariantKState, Replicas: clusterReplicas, Seed: seed})
	return err
}

func (e *engine) pass(r rec, st *runStats) error {
	t0 := time.Now()
	for _, s := range e.slices {
		d, _ := r.call("core", "core.Run."+s.name, func(rec) error {
			s.sys.Run(s.chunk)
			return nil
		})
		s.ns += d
		s.steps += uint64(s.chunk)
		if e.rounds == 0 {
			s.first, s.legal = s.sys.M.Stats, legal(s.sys)
		}
	}
	d, _ := r.call("cluster", "cluster.Run", func(rec) error {
		e.clu.Run(1)
		return nil
	})
	st.sample("cluster.epoch_ms", ms(d))
	for i := 0; i < fleetRuns; i++ {
		d, _ := r.call("cluster", "RingFleet.Run", func(rec) error {
			e.fleet.Run(cluster.DefaultRelayEvery)
			return nil
		})
		st.sample("cluster.ringfleet_run_us", float64(d.Nanoseconds())/1e3)
	}
	// Construction cost, as the suite pays it per trial.
	s := e.slices[e.rounds%len(e.slices)]
	d, err := r.call("core", "core.New", func(rec) error {
		_, err := core.New(s.cfg)
		return err
	})
	if err != nil {
		return err
	}
	st.sample("core.new_us", float64(d.Nanoseconds())/1e3)
	e.rounds++
	st.op(time.Since(t0))
	return nil
}

// legal reports whether the system's retained heartbeat streams satisfy
// their specifications at its current step.
func legal(sys *core.System) bool {
	if sys.Heartbeat != nil && len(sys.Spec().Violations(sys.Heartbeat.Writes(), sys.Steps())) > 0 {
		return false
	}
	for i, c := range sys.ProcBeats {
		if len(sys.ProcSpec(i).Violations(c.Writes(), sys.Steps())) > 0 {
			return false
		}
	}
	return true
}

func (e *engine) finish(st *runStats) {
	nsPerStep := map[string]float64{}
	var tickedNs time.Duration
	var tickedSteps uint64
	for _, s := range e.slices {
		nsPerStep[s.name] = float64(s.ns.Nanoseconds()) / float64(s.steps)
		st.setLayer("core."+s.name+".ns_per_step", nsPerStep[s.name], "ns")
		if s.name != "baseline" {
			tickedNs += s.ns
			tickedSteps += s.steps
		}
		// Engine telemetry over the first round: a fixed step count
		// from boot, so the counts repeat exactly for a seed.
		d := s.first.Delta(s.start)
		st.setLayer("machine."+s.name+".block_coverage", float64(d.BlockInstrs)/float64(d.Steps), "ratio")
		st.setLayer("machine."+s.name+".bails_per_mstep", float64(d.BlockBails)/(float64(d.Steps)/1e6), "1/Mstep")

		// Self-check: a fresh twin run to the same step reaches the same
		// architectural state and the same heartbeat verdict.
		twin, err := s.build(e.seed)
		if err != nil {
			st.check(false, "%v", err)
			continue
		}
		twin.Run(int(s.first.Steps - twin.M.Stats.Steps))
		st.check(twin.M.Stats.Arch() == s.first.Arch(), "slice %s: twin stats %v != measured %v",
			s.name, twin.M.Stats.Arch(), s.first.Arch())
		st.check(legal(twin) == s.legal, "slice %s: twin heartbeat verdict differs from the measured one", s.name)
		if !s.rate { // fault-free slices must stay legal throughout
			st.check(s.legal && legal(s.sys), "slice %s: heartbeat stream illegal", s.name)
		}
	}
	st.setLayer("dev.ticker_ns_per_step", nsPerStep["reinstall"]-nsPerStep["baseline"], "ns")
	st.setLayer("fault.hook_ns_per_step", nsPerStep["rate"]-nsPerStep["reinstall"], "ns")
	st.setLayer("obs.probe_overhead", nsPerStep["probed"]/nsPerStep["reinstall"], "ratio")

	epochs := st.get("cluster.epoch_ms")
	fleet := st.get("cluster.ringfleet_run_us")
	st.setLayer("cluster.epoch_ms", median(epochs), "ms")
	st.setLayer("cluster.ringfleet_run_us", median(fleet), "us")
	st.setLayer("core.new_us", median(st.get("core.new_us")), "us")

	cs := e.clu.Summary()
	st.check(cs.Evictions == 0 && cs.FreshBoots == 0, "fault-free cluster evicted %d replicas, %d fresh boots",
		cs.Evictions, cs.FreshBoots)
	st.check(cs.Availability == 1, "fault-free cluster availability %.3f", cs.Availability)
	st.check(e.fleet.Legal(), "ring fleet not legal: privileges %v", e.fleet.Privileges())

	base := e.slices[0]
	st.setHeadline("turbo_msteps_per_s", float64(base.steps)/base.ns.Seconds()/1e6, "Msteps/s")
	st.setHeadline("ticked_msteps_per_s", float64(tickedSteps)/tickedNs.Seconds()/1e6, "Msteps/s")
	replicaSteps := float64(len(epochs)*clusterReplicas*cluster.DefaultEpochSteps +
		len(fleet)*clusterReplicas*cluster.DefaultRelayEvery)
	st.setHeadline("fleet_msteps_per_s", replicaSteps/((sum(epochs)/1e3)+(sum(fleet)/1e6))/1e6, "Msteps/s")
}

func (e *engine) close() {}
