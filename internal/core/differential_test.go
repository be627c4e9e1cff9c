package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ssos/internal/fault"
	"ssos/internal/isa"
	"ssos/internal/machine"
	"ssos/internal/mem"
	"ssos/internal/obs"
)

// The differential harness for the execution engines: a system on the
// superblock engine (the default) and one on the reference interpreter
// (SetSuperblocks(false)) are driven in lockstep — same guest, same
// randomized initial configuration, same injected faults at the same
// steps — and must agree on every architectural observable. This is
// the soundness argument for the fast path made executable: from ANY
// initial configuration, under active fault injection, serving a
// predecoded block must be bit-identical to fetching and decoding
// from memory every step.

// diffLabels names the engines in newDiffPair order.
var diffLabels = [2]string{"superblock", "interp"}

// diffPair is one lockstep pair of systems: superblocks, interpreter.
type diffPair struct {
	sys [2]*System
	col [2]*obs.Collector
}

func newDiffPair(t *testing.T, cfg Config) *diffPair {
	t.Helper()
	p := &diffPair{}
	for i := range p.sys {
		p.sys[i] = MustNew(cfg)
		p.col[i] = obs.NewCollector()
		p.sys[i].Instrument(p.col[i])
	}
	p.sys[1].M.SetSuperblocks(false)
	return p
}

func (p *diffPair) each(f func(s *System)) {
	for _, s := range p.sys {
		f(s)
	}
}

// pokeBoth writes the same byte to the same address on both buses.
func (p *diffPair) pokeBoth(addr uint32, v byte) {
	p.each(func(s *System) { s.M.Bus.PokeRAM(addr, v) })
}

// tickerState renders the clocked devices' registers and action
// counters: the state the turbo lane settles in bulk.
func tickerState(s *System) string {
	var st string
	if w := s.Watchdog; w != nil {
		st += fmt.Sprintf("watchdog{%d/%d fires=%d} ", w.Counter, w.Period, w.Fires)
	}
	if w := s.Silence; w != nil {
		st += fmt.Sprintf("silence{%d/%d fires=%d} ", w.Counter, w.SilenceLimit, w.Fires)
	}
	if tm := s.Timer; tm != nil {
		st += fmt.Sprintf("timer{%d/%d fires=%d} ", tm.Counter, tm.Period, tm.Fires)
	}
	if c := s.Checkpoint; c != nil {
		st += fmt.Sprintf("checkpoint{%d/%d snapshots=%d restores=%d}", c.Counter, c.Period, c.Snapshots, c.Restores)
	}
	return st
}

// corruptTickers sets every clocked device's counter to the same random
// value on both systems, in range or (half the time) far past the
// period: the soft state the clamps must absorb.
func (p *diffPair) corruptTickers(rng *rand.Rand) {
	v := uint32(rng.Intn(1 << 10))
	if rng.Intn(2) == 0 {
		v = rng.Uint32()
	}
	p.each(func(s *System) {
		if s.Watchdog != nil {
			s.Watchdog.Counter = v
		}
		if s.Silence != nil {
			s.Silence.Counter = v
		}
		if s.Timer != nil {
			s.Timer.Counter = v
		}
		if s.Checkpoint != nil {
			s.Checkpoint.Counter = v
		}
	})
}

// injectSame applies one identical random fault to both machines. The
// menu mirrors the fault package's corruption classes but is applied
// symmetrically, which a per-machine Injector cannot do.
func (p *diffPair) injectSame(rng *rand.Rand) {
	switch rng.Intn(9) {
	case 0: // RAM bit flip — the classic transient fault
		a := uint32(rng.Intn(mem.AddrSpace))
		v := p.sys[0].M.Bus.Peek(a) ^ (1 << uint(rng.Intn(8)))
		p.pokeBoth(a, v)
	case 1: // burst of byte corruptions
		for i := 0; i < 16; i++ {
			p.pokeBoth(uint32(rng.Intn(mem.AddrSpace)), byte(rng.Intn(256)))
		}
	case 2:
		v := uint16(rng.Intn(1 << 16))
		p.each(func(s *System) { s.M.CPU.IP = v })
	case 3:
		r := isa.SReg(rng.Intn(int(isa.NumSRegs)))
		v := uint16(rng.Intn(1 << 16))
		p.each(func(s *System) { s.M.CPU.S[r] = v })
	case 4:
		v := isa.Flags(rng.Intn(1 << 16))
		p.each(func(s *System) { s.M.CPU.Flags = v })
	case 5:
		v := uint16(rng.Intn(1 << 16))
		p.each(func(s *System) { s.M.CPU.NMICounter = v })
	case 6:
		p.each(func(s *System) { s.M.RaiseNMI() })
	case 7:
		v := rng.Intn(2) == 0
		p.each(func(s *System) { s.M.CPU.Halted = v })
	case 8:
		p.corruptTickers(rng)
	}
}

// randomizeSame gives both systems the same any-state start: random
// soup in every RAM byte (PokeRAM skips ROM on both alike) and a random
// CPU configuration.
func (p *diffPair) randomizeSame(rng *rand.Rand) {
	for a := 0; a < mem.AddrSpace; a++ {
		p.pokeBoth(uint32(a), byte(rng.Intn(256)))
	}
	cpu := p.sys[0].M.CPU
	for i := range cpu.R {
		cpu.R[i] = uint16(rng.Intn(1 << 16))
	}
	for i := range cpu.S {
		cpu.S[i] = uint16(rng.Intn(1 << 16))
	}
	cpu.IP = uint16(rng.Intn(1 << 16))
	cpu.Flags = isa.Flags(rng.Intn(1 << 16))
	cpu.NMICounter = uint16(rng.Intn(1 << 16))
	p.each(func(s *System) { s.M.CPU = cpu })
}

// stepSame steps both systems once and asserts the events agree.
func (p *diffPair) stepSame(t *testing.T, tag string, step int) {
	t.Helper()
	evS, evI := p.sys[0].M.Step(), p.sys[1].M.Step()
	if evS != evI {
		t.Fatalf("%s step %d: event diverged: superblock=%v interp=%v", tag, step, evS, evI)
	}
}

// compare asserts that every observable of the pair is identical.
// Stats compare through Arch(): block counters are engine telemetry.
func (p *diffPair) compare(t *testing.T, tag string) {
	t.Helper()
	sb, ref := p.sys[0], p.sys[1]
	if sb.M.CPU != ref.M.CPU {
		t.Fatalf("%s: CPU diverged:\nsuperblock: %+v\n    interp: %+v", tag, sb.M.CPU, ref.M.CPU)
	}
	if sb.M.Stats.Arch() != ref.M.Stats.Arch() {
		t.Fatalf("%s: stats diverged:\nsuperblock: %v\n    interp: %v", tag, sb.M.Stats, ref.M.Stats)
	}
	if !bytes.Equal(sb.M.Bus.Snapshot(), ref.M.Bus.Snapshot()) {
		t.Fatalf("%s: memory images diverged", tag)
	}
	if ts, tr := tickerState(sb), tickerState(ref); ts != tr {
		t.Fatalf("%s: device state diverged:\nsuperblock: %s\n    interp: %s", tag, ts, tr)
	}
	if !reflect.DeepEqual(p.col[0].Events(), p.col[1].Events()) {
		t.Fatalf("%s: observability event streams diverged (%d vs %d events)",
			tag, len(p.col[0].Events()), len(p.col[1].Events()))
	}
	if ref.Heartbeat != nil {
		wf, ws := sb.Heartbeat.Writes(), ref.Heartbeat.Writes()
		if !reflect.DeepEqual(wf, ws) {
			t.Fatalf("%s: heartbeat streams diverged (%d vs %d writes)", tag, len(wf), len(ws))
		}
	}
}

// TestDecodeCacheDifferential runs the two engines one Step at a time
// in lockstep under continuous fault injection, for every transferable
// kernel approach, from both the clean boot state and fully randomized
// RAM + CPU configurations. Step is the one-step case of Run, so the
// superblock system retires these steps through blocks.
func TestDecodeCacheDifferential(t *testing.T) {
	steps := 40000
	trials := 4
	if testing.Short() {
		steps, trials = 8000, 2
	}
	for _, ap := range []Approach{ApproachBaseline, ApproachReinstall, ApproachMonitor} {
		for trial := 0; trial < trials; trial++ {
			p := newDiffPair(t, Config{Approach: ap})
			rng := rand.New(rand.NewSource(int64(9000 + 100*int(ap) + trial)))
			if trial%2 == 1 {
				p.randomizeSame(rng)
			}
			tag := fmt.Sprintf("approach %v trial %d", ap, trial)
			for i := 0; i < steps; i++ {
				if rng.Intn(101) == 0 {
					p.injectSame(rng)
				}
				p.stepSame(t, tag, i)
			}
			p.compare(t, ap.String()+"/final")
		}
	}
}

// TestSuperblockDifferentialRunBatches drives the two engines through
// real guest kernels via Run in uneven batches — the path that
// exercises the turbo lane, the halted idle and block chaining — with
// identical faults injected at batch boundaries, ticker counters among
// them, from both the clean boot state and fully randomized RAM + CPU
// configurations. The configurations cover every ticker the systems
// carry (watchdog, silence watchdog, timer, checkpointer) and short
// watchdog periods; some batches run far longer than the period, so
// the tickers' quiet horizon is what ends the lane. A second pass
// attaches a fault.Injector Rate hook with the same seed to both
// systems of the first three configurations, so every step runs the
// full skeleton with an AfterStep hook striking random faults from
// inside the step loop. The scheduler configurations attach a
// per-process PC histogram to both systems and compare it every batch.
func TestSuperblockDifferentialRunBatches(t *testing.T) {
	batches, trials := 600, 4
	if testing.Short() {
		batches, trials = 150, 2
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"baseline", Config{Approach: ApproachBaseline}},
		{"reinstall", Config{Approach: ApproachReinstall}},
		{"monitor", Config{Approach: ApproachMonitor}},
		{"scheduler", Config{Approach: ApproachScheduler}},
		{"adaptive", Config{Approach: ApproachAdaptive}},
		{"checkpoint", Config{Approach: ApproachCheckpoint}},
		{"reinstall/tickful", Config{Approach: ApproachReinstall, TickfulKernel: true}},
		{"scheduler/period-61", Config{Approach: ApproachScheduler, WatchdogPeriod: 61}},
		{"checkpoint/period-331", Config{Approach: ApproachCheckpoint, WatchdogPeriod: 331}},
	}
	for _, hooked := range []bool{false, true} {
		for ci, c := range configs {
			if hooked && ci >= 3 {
				break // hooked steps tick per step on both engines; the first three suffice
			}
			for trial := 0; trial < trials; trial++ {
				seed := int64(31000 + 100*ci + trial)
				tag := c.name
				p := newDiffPair(t, c.cfg)
				if hooked {
					seed += 50
					tag += "/rate-hook"
					p.each(func(s *System) { fault.NewInjector(s.M, seed).Rate(1e-3) })
				}
				rng := rand.New(rand.NewSource(seed))
				if trial%2 == 1 {
					p.randomizeSame(rng)
				}
				var hist [2]*machine.PCHistogram
				if c.cfg.Approach == ApproachScheduler {
					for i, s := range p.sys {
						hist[i] = machine.NewPCHistogram(ProcRanges()...)
						s.M.PCHist = hist[i]
					}
				}
				for b := 0; b < batches; b++ {
					if rng.Intn(5) == 0 {
						switch rng.Intn(8) {
						case 0:
							a := uint32(rng.Intn(mem.AddrSpace))
							v := p.sys[0].M.Bus.Peek(a) ^ (1 << uint(rng.Intn(8)))
							p.pokeBoth(a, v)
						case 1: // land on the live code stream
							a := (uint32(p.sys[0].M.CPU.S[isa.CS])<<4 +
								uint32(p.sys[0].M.CPU.IP) + uint32(rng.Intn(16))) & mem.AddrMask
							p.pokeBoth(a, byte(rng.Intn(256)))
						case 2:
							v := uint16(rng.Intn(1 << 16))
							p.each(func(s *System) { s.M.CPU.IP = v })
						case 3:
							r := isa.SReg(rng.Intn(int(isa.NumSRegs)))
							v := uint16(rng.Intn(1 << 16))
							p.each(func(s *System) { s.M.CPU.S[r] = v })
						case 4:
							v := isa.Flags(rng.Intn(1 << 16))
							p.each(func(s *System) { s.M.CPU.Flags = v })
						case 5:
							p.each(func(s *System) { s.M.RaiseNMI() })
						case 6:
							v := rng.Intn(2) == 0
							p.each(func(s *System) { s.M.CPU.Halted = v })
						case 7:
							p.corruptTickers(rng)
						}
					}
					n := rng.Intn(197) + 1
					if rng.Intn(10) == 0 {
						n = rng.Intn(1500) + 1 // past short periods: the horizon ends the lane
					}
					p.each(func(s *System) { s.M.Run(n) })
					// Cheap per-batch agreement; full compare at trial end.
					if p.sys[0].M.CPU != p.sys[1].M.CPU || tickerState(p.sys[0]) != tickerState(p.sys[1]) {
						p.compare(t, tag+"/batch")
					}
					if h := hist; h[0] != nil && (!slices.Equal(h[0].Counts, h[1].Counts) ||
						h[0].Other != h[1].Other || h[0].Total != h[1].Total) {
						t.Fatalf("%s/batch %d: PC histogram diverged:\nsuperblock: %v other=%d total=%d\n    interp: %v other=%d total=%d",
							tag, b, h[0].Counts, h[0].Other, h[0].Total, h[1].Counts, h[1].Other, h[1].Total)
					}
				}
				p.compare(t, tag+"/final")
			}
		}
	}
}

// TestDecodeCacheDifferentialSelfModifying pins the hardest staleness
// case deliberately rather than probabilistically: the guest's own
// stores land on top of upcoming instructions (a store to cs:ip+k),
// so a stale predecoded block would execute the overwritten
// instruction.
func TestDecodeCacheDifferentialSelfModifying(t *testing.T) {
	p := newDiffPair(t, Config{Approach: ApproachBaseline})
	rng := rand.New(rand.NewSource(4242))
	code := uint32(0x0100) << 4 // default kernel image segment
	for i := 0; i < 30000; i++ {
		if i%7 == 0 {
			// Overwrite a byte right around the current instruction
			// stream.
			m := p.sys[0].M
			lin := (uint32(m.CPU.S[isa.CS])<<4 + uint32(m.CPU.IP) + uint32(rng.Intn(8))) & mem.AddrMask
			p.pokeBoth(lin, byte(rng.Intn(256)))
		}
		if i%13 == 0 {
			p.pokeBoth(code+uint32(rng.Intn(256)), byte(rng.Intn(256)))
		}
		p.stepSame(t, "self-modifying", i)
	}
	p.compare(t, "self-modifying/final")
}
