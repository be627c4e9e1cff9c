package machine

import (
	"ssos/internal/isa"
	"ssos/internal/obs"
)

// Step advances the system by one clock tick: devices tick, then the
// processor performs (at most) one unit of work — a reset, an interrupt
// delivery, one instruction, or an idle halt tick. It returns what
// happened.
//
// This is the paper's "system step": the next configuration is a
// function of the current configuration and the external inputs at the
// clock tick. Step is total: it is well-defined from ANY configuration,
// including corrupted ones, which is what makes the machine a valid
// substrate for self-stabilization experiments. It is the one-step
// case of Run: both go through the same loop.
func (m *Machine) Step() Event { return m.run(1) }

// Run executes n steps and returns the machine for chaining. It is
// exactly n calls of Step.
func (m *Machine) Run(n int) *Machine {
	m.run(n)
	return m
}

// run is the machine's only step loop: n iterations of the step
// skeleton — Stats.Steps, device ticks, pin checks, halt ticks, the
// instruction slot, the NMI-counter decrement, the PCHist count and
// the trailing AfterStep call — returning the last step's event. The
// instruction slot is served by the superblock engine (sbExec) when it
// is on and by the reference interpreter (execute) when it is off.
//
// With the engine on, no AfterStep hook and no latched pin, the steps
// up to the tickers' quiet horizon have no skeleton work besides the
// instruction, and fastForward retires them in bulk: through the
// engine's turbo lane (sbTurbo) while running, in O(1) while halted.
// The step on which a ticker acts runs the full skeleton, so its Tick
// fires exactly where the per-step loop fires it. Every condition is a
// live machine field re-read per iteration, so a hook, ticker or
// engine switch installed mid-run is honoured from the very next step.
// With the engine off the loop ticks every ticker on every step: the
// reference the differential suites hold the bulk paths against.
//
//ssos:hotpath
func (m *Machine) run(n int) Event {
	var ev Event
	for done := 0; done < n; done++ {
		if m.AfterStep == nil && m.pins == 0 && m.sblocks != nil && (m.CPU.Halted || m.sbCur != nil) {
			if done, ev = m.fastForward(done, n); done >= n {
				return ev
			}
		}
		m.Stats.Steps++
		for _, t := range m.tickers {
			t.Tick(m)
		}

		// The processor's unit of work, open-coded here (rather than a
		// stepCPU helper) to keep the per-step call chain short: one
		// compare rules out all three external pins; stepPins handles
		// the rare latched cases.
		handled := false
		if m.pins != 0 {
			ev, handled = m.stepPins()
		}
		if !handled {
			switch {
			case m.CPU.Halted:
				m.Stats.HaltTicks++
				ev = EventHalted
			case m.sblocks != nil:
				ev = m.sbExec()
			default:
				ev = m.execute()
			}
		}

		// The paper's NMI-counter hardware: decremented on every clock
		// tick until it reaches zero, except on the tick that loaded it
		// (NMI delivery), so the handler gets its full budget.
		if m.Opts.NMICounter && ev != EventNMI && m.CPU.NMICounter > 0 {
			m.CPU.NMICounter--
		}
		if m.PCHist != nil && ev == EventInstr {
			m.PCHist.countPC(&m.CPU)
		}

		if m.AfterStep != nil {
			m.AfterStep(m, ev)
		}
	}
	return ev
}

// fastForward retires steps done, done+1, ... in bulk, up to the
// tickers' quiet horizon: a halted processor idles them in O(1) — the
// Steps and HaltTicks counters grow and the NMI counter drops by the
// horizon, clamped at zero, as that many halted steps would leave them
// — and a running one retires them through the turbo lane, which stops
// early at anything the skeleton must handle. Either way the tickers
// are then settled by the number of steps taken. It returns the step
// index reached and the last step's event (meaningful only if a step
// was taken). run guarantees the engine is on, no AfterStep hook is
// installed, no pin is latched, and the processor is halted or has a
// current block.
func (m *Machine) fastForward(done, n int) (int, Event) {
	h := m.horizon(n - done)
	if h <= 0 {
		return done, 0
	}
	if m.CPU.Halted {
		m.Stats.Steps += uint64(h)
		m.Stats.HaltTicks += uint64(h)
		if m.Opts.NMICounter {
			m.CPU.NMICounter -= uint16(min(int(m.CPU.NMICounter), h))
		}
		for _, t := range m.tickers {
			t.Skip(h)
		}
		return done + h, EventHalted
	}
	var ev Event
	m.laneOpen, m.laneBase = true, m.Stats.Steps
	done, ev = m.sbTurbo(m.sbCur, done, done+h, n)
	m.settle()
	m.laneOpen = false
	return done, ev
}

// horizon returns how many of the next limit steps every ticker sits
// out: the minimum of limit and each ticker's Quiet.
func (m *Machine) horizon(limit int) int {
	for _, t := range m.tickers {
		if q := t.Quiet(); q < limit {
			limit = q
		}
	}
	return limit
}

// settle brings the tickers up to date with the steps the turbo lane
// retired since laneBase. The lane never runs past the horizon, so
// each of those steps was a pure countdown for every ticker and Skip
// applies them at once.
func (m *Machine) settle() {
	if k := int(m.Stats.Steps - m.laneBase); k > 0 {
		for _, t := range m.tickers {
			t.Skip(k)
		}
	}
	m.laneBase = m.Stats.Steps
}

// RunUntil steps the machine until pred returns true or limit steps
// have run; it reports whether pred was satisfied.
func (m *Machine) RunUntil(limit int, pred func(*Machine) bool) bool {
	for i := 0; i < limit; i++ {
		m.Step()
		if pred(m) {
			return true
		}
	}
	return false
}

// stepPins reacts to latched external pins in priority order: reset,
// then NMI, then maskable IRQ. It reports whether a pin was acted on;
// a latched-but-undeliverable pin (masked IRQ, in-flight NMI) leaves
// the processor to execute normally.
func (m *Machine) stepPins() (Event, bool) {
	if m.pins&pinReset != 0 {
		m.Reset()
		m.Stats.Resets++
		if m.Probe != nil {
			m.Probe.Emit(obs.Ev(m.Stats.Steps, obs.TypeReset))
		}
		return EventReset, true
	}
	if m.pins&pinNMI != 0 && m.nmiDeliverable() {
		m.deliverNMI()
		m.Stats.NMIs++
		if m.Probe != nil {
			m.Probe.Emit(obs.Ev(m.Stats.Steps, obs.TypeNMI))
		}
		return EventNMI, true
	}
	if m.pins&pinIRQ != 0 && m.CPU.Flags.Has(isa.FlagIF) {
		m.deliverIRQ()
		m.Stats.IRQs++
		if m.Probe != nil {
			m.Probe.Emit(obs.Ev(m.Stats.Steps, obs.TypeIRQ))
		}
		return EventIRQ, true
	}
	return 0, false
}

// nmiDeliverable implements the two hardware variants: the paper's
// counter (react only at zero — and zero is eventually reached from
// any state) or the stock latch (react only when not already in an NMI
// — which an arbitrary state can hold forever).
func (m *Machine) nmiDeliverable() bool {
	if m.Opts.NMICounter {
		return m.CPU.NMICounter == 0
	}
	return !m.CPU.InNMI
}

func (m *Machine) deliverNMI() {
	m.pins &^= pinNMI
	m.push(uint16(m.CPU.Flags))
	m.push(m.CPU.S[isa.CS])
	m.push(m.CPU.IP)
	m.CPU.Flags = m.CPU.Flags.Without(isa.FlagIF | isa.FlagWP)
	m.CPU.Halted = false
	if m.Opts.NMICounter {
		m.CPU.NMICounter = m.Opts.NMICounterMax
	} else {
		m.CPU.InNMI = true
	}
	var target SegOff
	if m.Opts.HardwiredNMIVector {
		target = m.Opts.NMIVector
	} else {
		target = m.idtEntry(VecNMI)
	}
	m.CPU.S[isa.CS] = target.Seg
	m.CPU.IP = target.Off
}

func (m *Machine) deliverIRQ() {
	m.pins &^= pinIRQ
	m.push(uint16(m.CPU.Flags))
	m.push(m.CPU.S[isa.CS])
	m.push(m.CPU.IP)
	m.CPU.Flags = m.CPU.Flags.Without(isa.FlagIF | isa.FlagWP)
	m.CPU.Halted = false
	target := m.idtEntry(m.irqVec)
	m.CPU.S[isa.CS] = target.Seg
	m.CPU.IP = target.Off
}

// raiseException reacts to a processor exception according to the
// configured policy. The program counter still addresses the faulting
// instruction when this is called.
func (m *Machine) raiseException(vec uint8) Event {
	m.Stats.Exceptions++
	if m.Probe != nil {
		ev := obs.Ev(m.Stats.Steps, obs.TypeException)
		ev.Code = uint64(vec)
		m.Probe.Emit(ev)
	}
	switch m.Opts.ExceptionPolicy {
	case ExceptionHalt:
		m.CPU.Halted = true
	case ExceptionVector:
		m.push(uint16(m.CPU.Flags))
		m.push(m.CPU.S[isa.CS])
		m.push(m.CPU.IP)
		m.CPU.Flags = m.CPU.Flags.Without(isa.FlagIF | isa.FlagWP)
		m.CPU.S[isa.CS] = m.Opts.ExceptionVector.Seg
		m.CPU.IP = m.Opts.ExceptionVector.Off
	case ExceptionIDT:
		m.push(uint16(m.CPU.Flags))
		m.push(m.CPU.S[isa.CS])
		m.push(m.CPU.IP)
		m.CPU.Flags = m.CPU.Flags.Without(isa.FlagIF | isa.FlagWP)
		target := m.idtEntry(vec)
		m.CPU.S[isa.CS] = target.Seg
		m.CPU.IP = target.Off
	}
	return EventException
}
