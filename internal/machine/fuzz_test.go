package machine

import (
	"bytes"
	"math/rand"
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

// FuzzSuperblockDifferential drives the superblock engine and the
// reference interpreter through the same fuzz-chosen schedule of
// stores, corruptions, AfterStep hooks and steps, applied identically
// to both. Batches go through Run in fuzz-chosen sizes — the turbo
// lane, block chaining and bails — so cursors are left mid-block across
// mutations; single Steps compare events on every step; an installed
// hook routes steps through the full skeleton and, at a fuzz-chosen
// step, pokes the code region and/or rewrites IP from inside the step
// loop. No engine may ever serve a stale instruction, so the two
// machines must agree on every event and end bit-identical.
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
		steps := 0
		for steps < 50000 {
			op, ok := pop()
			if !ok {
				break
			}
			switch op % 9 {
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
			}
		}
		// Drain: a final burst so late mutations get executed.
		pairDo(pair, func(m *Machine) { m.Run(256) })
		comparePair(t, pair, "fuzz final")
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
