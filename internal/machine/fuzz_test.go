package machine

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"ssos/internal/isa"
	"ssos/internal/mem"
)

// TestRandomProgramsNeverWedgeTheStepper feeds the machine fully random
// byte soup as code under every exception policy and checks the
// substrate invariants the self-stabilization results rest on: Step
// stays total (exact step accounting), ROM stays immutable, and the
// machine never panics — whatever the "program".
func TestRandomProgramsNeverWedgeTheStepper(t *testing.T) {
	romImage := make([]byte, 256)
	for i := range romImage {
		romImage[i] = byte(isa.OpNop)
	}
	romImage[0] = byte(isa.OpIret)

	policies := []ExceptionPolicy{ExceptionHalt, ExceptionVector, ExceptionIDT}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		bus := mem.NewBus()
		bus.SetROMWritePolicy(mem.ROMWriteFault)
		if _, err := bus.AddROM("rom", 0xF0000, romImage); err != nil {
			t.Fatal(err)
		}
		m := New(bus, Options{
			ResetVector:        SegOff{0x0100, 0},
			NMICounter:         trial%2 == 0,
			HardwiredNMIVector: trial%3 == 0,
			NMIVector:          SegOff{0xF000, 0},
			ExceptionPolicy:    policies[trial%len(policies)],
			ExceptionVector:    SegOff{0xF000, 0},
			MemoryProtection:   trial%5 == 0,
		})
		// Random code everywhere the PC might land.
		for i := 0; i < 4096; i++ {
			bus.PokeRAM(uint32(rng.Intn(mem.AddrSpace)), byte(rng.Intn(256)))
		}
		m.CPU.IP = uint16(rng.Intn(1 << 16))
		m.CPU.S[isa.CS] = uint16(rng.Intn(1 << 16))
		m.CPU.S[isa.SS] = uint16(rng.Intn(1 << 16))
		m.CPU.R[isa.SP] = uint16(rng.Intn(1 << 16))
		m.CPU.Flags = isa.Flags(rng.Intn(1 << 16))
		if rng.Intn(2) == 0 {
			m.RaiseNMI()
		}
		const steps = 2000
		m.Run(steps)
		if m.Stats.Steps != steps {
			t.Fatalf("trial %d: step accounting broke: %d", trial, m.Stats.Steps)
		}
		for i, b := range romImage {
			if bus.Peek(0xF0000+uint32(i)) != b {
				t.Fatalf("trial %d: ROM byte %d changed", trial, i)
			}
		}
	}
}

// fuzzTicker is a countdown ticker local to the fuzz harness (the dev
// devices import this package): period and counter clamp like the
// watchdog's, and the acting tick latches a fuzz-chosen pin.
type fuzzTicker struct {
	period, counter uint32
	pin             uint8
	fires           uint64
}

func (t *fuzzTicker) clamp() {
	if t.period == 0 {
		t.period = 1
	}
	if t.counter >= t.period {
		t.counter = t.period - 1
	}
}

func (t *fuzzTicker) Tick(m *Machine) {
	t.clamp()
	if t.counter > 0 {
		t.counter--
		return
	}
	t.counter = t.period - 1
	t.fires++
	switch t.pin % 3 {
	case 0:
		m.RaiseNMI()
	case 1:
		m.RaiseReset()
	default:
		m.RaiseIRQ(t.pin)
	}
}

func (t *fuzzTicker) Quiet() int {
	if t.period == 0 {
		return 0
	}
	return int(min(t.counter, t.period-1))
}

func (t *fuzzTicker) Skip(k int) {
	if k > 0 {
		t.clamp()
		t.counter -= uint32(k)
	}
}

// reloadPort reads and reloads a fuzzTicker through a port: In returns
// its counter and Out sets it, so what a port access sees, and the
// horizon after it, depend on the ticks settled before it.
type reloadPort struct{ t *fuzzTicker }

func (p reloadPort) In(uint16) uint16       { return uint16(p.t.counter) }
func (p reloadPort) Out(_ uint16, v uint16) { p.t.counter = uint32(v) }

// compareTickers asserts the two machines' fuzz tickers agree.
func compareTickers(t *testing.T, tk [2][]*fuzzTicker, tag string) {
	t.Helper()
	for j := range tk[0] {
		if *tk[0][j] != *tk[1][j] {
			t.Fatalf("%s: ticker %d diverged:\nsuperblock: %+v\n    interp: %+v", tag, j, *tk[0][j], *tk[1][j])
		}
	}
}

// compareHists asserts the two machines' PC histograms agree, detached
// ones included.
func compareHists(t *testing.T, hs [2][]*PCHistogram, tag string) {
	t.Helper()
	for j := range hs[0] {
		a, b := hs[0][j], hs[1][j]
		if !slices.Equal(a.Counts, b.Counts) || a.Other != b.Other || a.Total != b.Total {
			t.Fatalf("%s: PC histogram %d diverged:\nsuperblock: %v other=%d total=%d\n    interp: %v other=%d total=%d",
				tag, j, a.Counts, a.Other, a.Total, b.Counts, b.Other, b.Total)
		}
	}
}

// FuzzSuperblockDifferential drives the superblock engine and the
// reference interpreter through the same fuzz-chosen schedule of
// stores, corruptions, AfterStep hooks, tickers and steps, applied
// identically to both. Batches go through Run in fuzz-chosen sizes —
// the turbo lane up to the tickers' quiet horizon, the halted idle,
// block chaining and bails — so cursors are left mid-block across
// mutations; single Steps compare events on every step; an installed
// hook routes steps through the full skeleton and, at a fuzz-chosen
// step, pokes the code region and/or rewrites IP from inside the step
// loop. Tickers (fuzz-chosen period, counter and pin) have their
// counters corrupted between batches and can be read and reloaded
// through a mapped port. PC histograms with fuzz-chosen ranges (empty,
// overlapping, at the 1 MiB edge) are attached and detached between
// batches. No engine may ever serve a stale instruction or a late
// tick, so the two machines must agree on every event and end
// bit-identical, tickers and histogram counts included.
//
// Op 12 (the histogram) moved the op modulus from 12 to 13. The only
// existing seed byte that changes meaning is the last byte (20) of the
// third seed: it was op 8, a hook with every argument zero; it is now
// op 7, one single Step.
func FuzzSuperblockDifferential(f *testing.F) {
	// Seeds: plain stepping, self-modifying stosb soup, store-then-step
	// interleavings, fault-heavy schedules, and hook pokes and IP
	// rewrites fired between single steps and mid-batch.
	f.Add([]byte{1, 40, 1, 40})
	f.Add([]byte{0, 0x10, 0x02, byte(isa.OpHlt), 1, 8, 0, 0x11, 0x02, byte(isa.OpStosb), 1, 8})
	f.Add([]byte{2, 0x00, 0x10, 1, 20, 3, 0x34, 0x12, 1, 20, 4, 1, 20, 6, 1, 20})
	f.Add(bytes.Repeat([]byte{0, 0xAB, 0x05, 0x62, 1, 3}, 24))
	f.Add([]byte{8, 2, 0x03, 0x00, byte(isa.OpHlt), 0, 7, 6, 1, 40})
	f.Add(bytes.Repeat([]byte{8, 5, 0x20, 0x01, 0x62, 2, 1, 30, 7, 3}, 8))
	f.Add(bytes.Repeat([]byte{8, 3, 0x02, 0x00, byte(isa.OpHlt), 6, 7, 9, 6, 1}, 12))
	// Eight nops at the reset ip, then a hook that pokes hlt over the
	// fourth while single Steps retire the block through sbExec.
	nops := make([]byte, 0, 48)
	for i := byte(0); i < 8; i++ {
		nops = append(nops, 0, i, 0x00, byte(isa.OpNop))
	}
	f.Add(append(nops, 8, 2, 0x03, 0x00, byte(isa.OpHlt), 0, 7, 15))
	// Tickers. A deadline reached while halted, with the NMI counter
	// still running down from a delivered NMI (the bulk idle must drop
	// it exactly as the per-step loop does); a period-0 ticker and a
	// corrupted out-of-range counter while halted; then a loop at the
	// reset ip whose out/in read and reload a ticker through its port
	// while a second ticker counts down, with counters corrupted
	// between batches.
	f.Add([]byte{9, 30, 29, 0, 0, 4, 7, 0, 6, 0, 1, 63, 1, 63, 1, 63, 1, 63})
	f.Add([]byte{9, 0, 0xFF, 0xFF, 1, 6, 0, 1, 20, 10, 0x80, 5, 0, 9, 40, 7, 0, 2, 6, 2, 1, 63, 1, 63})
	loop := prog(
		isa.Inst{Op: isa.OpIncR, R1: r(isa.AX)},
		isa.Inst{Op: isa.OpNop},
		isa.Inst{Op: isa.OpOutI, Imm: 0x42},
		isa.Inst{Op: isa.OpInI, Imm: 0x42},
		isa.Inst{Op: isa.OpNop},
		isa.Inst{Op: isa.OpJmp, Imm: 0},
	)
	var portSeed []byte
	for i, b := range loop {
		portSeed = append(portSeed, 0, byte(i), 0x00, b)
	}
	portSeed = append(portSeed, 3, 0, 20, 9, 50, 12, 0, 0, 11, 0x42, 9, 90, 80, 0, 2)
	portSeed = append(portSeed, bytes.Repeat([]byte{1, 63, 10, 1, 7, 0, 1, 47, 7, 3}, 6)...)
	f.Add(portSeed)
	// PC histograms: overlapping, empty and 1 MiB-edge ranges over the
	// background soup, detached and re-attached as one range reaching
	// the top of memory; then the same over a nop loop at the reset ip
	// that the turbo lane retires entry by entry.
	f.Add([]byte{12, 4, 0x00, 0x00, 8, 0x04, 0x00, 8, 0x10, 0x00, 0, 0x0F, 0xC0, 0,
		1, 63, 7, 20, 1, 63, 12, 0, 1, 40, 12, 1, 0x00, 0x40, 0, 1, 63})
	nopLoop := append([]byte(nil), nops...)
	nopLoop = append(nopLoop, 0, 8, 0x00, byte(isa.OpJmp), 0, 9, 0x00, 0, 0, 10, 0x00, 0)
	nopLoop = append(nopLoop, 12, 2, 0x00, 0x00, 4, 0x02, 0x00, 8, 1, 63, 1, 63, 7, 10, 12, 0, 1, 63)
	f.Add(nopLoop)
	// Chaining into a negative block: P (nop; jmp 0x100) at the reset ip
	// and H (nop; jmp 0) on the next page chain through each other's succ
	// hints; H's head is then clobbered, so the next entry rebuilds its
	// slot in place as a negative block and the exception parks the
	// machine in ROM. A reset ticker returns to P, whose exhausted block
	// must not follow the hint into H's empty entries.
	chain := []byte{}
	for i, b := range prog(isa.Inst{Op: isa.OpNop}, isa.Inst{Op: isa.OpJmp, Imm: 0x100}) {
		chain = append(chain, 0, byte(i), 0x00, b)
	}
	for i, b := range prog(isa.Inst{Op: isa.OpNop}, isa.Inst{Op: isa.OpJmp, Imm: 0}) {
		chain = append(chain, 0, byte(i), 0x01, b)
	}
	chain = append(chain, 1, 40, 0, 0x00, 0x01, 0xFF, 1, 10, 9, 50, 5, 0, 1, 1, 63, 1, 63, 7, 30)
	f.Add(chain)

	f.Fuzz(func(t *testing.T, data []byte) {
		pair := newPairMachines(t, Options{
			ResetVector:     SegOff{0x0100, 0},
			NMICounter:      true,
			ExceptionPolicy: ExceptionVector,
			ExceptionVector: SegOff{0xF000, 0},
		})
		// Deterministic pseudo-random background soup so short fuzz
		// inputs still execute something.
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1024; i++ {
			a := 0x1000 + uint32(i)
			v := byte(rng.Intn(256))
			pairDo(pair, func(m *Machine) { m.Bus.PokeRAM(a, v) })
		}

		pop := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		// tk holds each machine's fuzz tickers, in registration order;
		// hs every PC histogram ever attached, detached ones included.
		var tk [2][]*fuzzTicker
		var hs [2][]*PCHistogram
		steps := 0
		for steps < 50000 {
			op, ok := pop()
			if !ok {
				break
			}
			switch op % 13 {
			case 0: // poke a byte near the code region (fault injection)
				lo, _ := pop()
				hi, _ := pop()
				v, _ := pop()
				addr := 0x1000 + (uint32(hi)<<8|uint32(lo))&0x0FFF
				pairDo(pair, func(m *Machine) { m.Bus.PokeRAM(addr, v) })
			case 1: // run a batch, comparing state at the boundary
				n, _ := pop()
				k := int(n%64) + 1
				pairDo(pair, func(m *Machine) { m.Run(k) })
				steps += k
				comparePairCPU(t, pair, "fuzz batch")
				compareTickers(t, tk, "fuzz batch")
				compareHists(t, hs, "fuzz batch")
			case 2: // corrupt IP
				lo, _ := pop()
				hi, _ := pop()
				v := uint16(hi)<<8 | uint16(lo)
				pairDo(pair, func(m *Machine) { m.CPU.IP = v })
			case 3: // corrupt a register bank entry
				reg, _ := pop()
				lo, _ := pop()
				v := uint16(lo) | uint16(reg)<<8
				i := isa.Reg(reg) % isa.NumRegs
				pairDo(pair, func(m *Machine) { m.CPU.R[i] = v })
			case 4: // raise NMI on both
				pairDo(pair, func(m *Machine) { m.RaiseNMI() })
			case 5: // direct word store via the bus (DMA-style)
				lo, _ := pop()
				hi, _ := pop()
				v, _ := pop()
				addr := 0x1000 + (uint32(hi)<<8|uint32(lo))&0x0FFF
				pairDo(pair, func(m *Machine) { m.Bus.StoreWord(addr, uint16(v)|uint16(v)<<8) })
			case 6: // toggle halt latch
				v, _ := pop()
				h := v%2 == 0
				pairDo(pair, func(m *Machine) { m.CPU.Halted = h })
			case 7: // single Steps, comparing events on every step
				n, _ := pop()
				for i := 0; i < int(n%64)+1; i++ {
					stepPair(t, pair, "fuzz step")
					steps++
				}
			case 8: // hook: after a fuzz-chosen number of steps, poke and/or rewrite IP once
				after, _ := pop()
				lo, _ := pop()
				hi, _ := pop()
				v, _ := pop()
				mode, _ := pop()
				off := uint32(hi)<<8 | uint32(lo)
				ip := uint16(off)
				pairDo(pair, func(m *Machine) {
					left := int(after % 64)
					m.AfterStep = func(m *Machine, _ Event) {
						if left--; left != -1 {
							return // not due yet, or fired already (inert)
						}
						if mode%3 != 1 {
							// mode&4: aim just ahead of the live ip, into the
							// block being executed.
							o := off
							if mode&4 != 0 {
								o = uint32(m.CPU.IP) + off%16
							}
							m.Bus.PokeRAM(0x1000+o&0x0FFF, v)
						}
						if mode%3 != 0 {
							m.CPU.IP = ip
						}
						if mode&8 != 0 {
							m.AfterStep = nil // detach: later steps may take the turbo lane
						}
					}
				})
			case 9: // register a countdown ticker: period, counter, pin
				period, _ := pop()
				lo, _ := pop()
				hi, _ := pop()
				pin, _ := pop()
				for i, m := range pair {
					tr := &fuzzTicker{period: uint32(period), counter: uint32(hi)<<8 | uint32(lo), pin: pin}
					tk[i] = append(tk[i], tr)
					m.AddTicker(tr)
				}
			case 10: // corrupt a ticker's counter (sel&0x80: out of range)
				sel, _ := pop()
				lo, _ := pop()
				hi, _ := pop()
				if len(tk[0]) == 0 {
					break
				}
				j := int(sel&0x7F) % len(tk[0])
				v := uint32(hi)<<8 | uint32(lo)
				if sel&0x80 != 0 {
					v = ^v
				}
				for i := range pair {
					tk[i][j].counter = v
				}
			case 11: // map a port that reads and reloads the newest ticker
				port, _ := pop()
				if len(tk[0]) == 0 {
					break
				}
				for i, m := range pair {
					m.MapPort(uint16(port), reloadPort{tk[i][len(tk[i])-1]})
				}
			case 12: // attach a PC histogram of sel%5 ranges; 0 detaches
				sel, _ := pop()
				if sel%5 == 0 {
					pairDo(pair, func(m *Machine) { m.PCHist = nil })
					break
				}
				var ranges []PCRange
				for j := 0; j < int(sel%5); j++ {
					lo, _ := pop()
					hi, _ := pop()
					n, _ := pop() // length; 0 is an empty range
					start := 0x1000 + (uint32(hi&0x0F)<<8 | uint32(lo))
					if hi&0x80 != 0 {
						start = mem.AddrSpace - 1 - uint32(lo)
					}
					end := start + uint32(n)
					if hi&0x40 != 0 {
						end = mem.AddrSpace
					}
					ranges = append(ranges, PCRange{Start: start, End: end})
				}
				for i, m := range pair {
					hs[i] = append(hs[i], NewPCHistogram(ranges...))
					m.PCHist = hs[i][len(hs[i])-1]
				}
			}
		}
		// Drain: a final burst so late mutations get executed.
		pairDo(pair, func(m *Machine) { m.Run(256) })
		comparePair(t, pair, "fuzz final")
		compareTickers(t, tk, "fuzz final")
		compareHists(t, hs, "fuzz final")
	})
}

// TestRandomFaultStormOnEveryApproachSubstrate hammers a single machine
// with interleaved random faults and steps; the stepper must keep
// exact accounting throughout.
func TestRandomFaultStormSubstrate(t *testing.T) {
	bus := mem.NewBus()
	if _, err := bus.AddROM("rom", 0xF0000, []byte{byte(isa.OpJmp), 0, 0}); err != nil {
		t.Fatal(err)
	}
	m := New(bus, Options{
		ResetVector:        SegOff{0xF000, 0},
		NMICounter:         true,
		HardwiredNMIVector: true,
		NMIVector:          SegOff{0xF000, 0},
		ExceptionPolicy:    ExceptionVector,
		ExceptionVector:    SegOff{0xF000, 0},
	})
	rng := rand.New(rand.NewSource(7))
	var want uint64
	for i := 0; i < 5000; i++ {
		switch rng.Intn(6) {
		case 0:
			m.CPU.IP = uint16(rng.Intn(1 << 16))
		case 1:
			m.CPU.S[isa.SReg(rng.Intn(int(isa.NumSRegs)))] = uint16(rng.Intn(1 << 16))
		case 2:
			m.CPU.NMICounter = uint16(rng.Intn(1 << 16))
		case 3:
			m.RaiseNMI()
		case 4:
			m.CPU.Halted = rng.Intn(2) == 0
		case 5:
			bus.PokeRAM(uint32(rng.Intn(mem.AddrSpace)), byte(rng.Intn(256)))
		}
		n := rng.Intn(50)
		m.Run(n)
		want += uint64(n)
		if m.Stats.Steps != want {
			t.Fatalf("accounting: %d != %d", m.Stats.Steps, want)
		}
	}
}
