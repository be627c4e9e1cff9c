package machine

import (
	"bytes"
	"math/rand"
	"testing"

	"ssos/internal/isa"
	"ssos/internal/mem"
)

// Two-engine differential harness: the superblock engine (the default)
// and the reference interpreter (SetSuperblocks(false)) are driven
// through identical schedules and must agree on every architectural
// observable. Run in uneven batches exercises the turbo lane, block
// chaining and the bail paths; single Steps and AfterStep hooks
// exercise the full skeleton through sbExec.

// pairLabels names the engines in newPairMachines order.
var pairLabels = [2]string{"superblock", "interp"}

// newPairMachines builds two machines over identical buses — a small
// ROM at the reset/NMI vector and otherwise empty RAM — with the same
// options: the superblock engine and the reference interpreter.
func newPairMachines(t testing.TB, opts Options) [2]*Machine {
	t.Helper()
	rom := []byte{byte(isa.OpJmp), 0, 0}
	var pair [2]*Machine
	for i := range pair {
		bus := mem.NewBus()
		if _, err := bus.AddROM("rom", 0xF0000, rom); err != nil {
			t.Fatal(err)
		}
		pair[i] = New(bus, opts)
	}
	pair[1].SetSuperblocks(false)
	return pair
}

// comparePairCPU asserts registers-level agreement (cheap, used per
// batch). Stats are compared through Arch(): the block counters are
// engine telemetry and legitimately differ across engines.
func comparePairCPU(t testing.TB, pair [2]*Machine, tag string) {
	t.Helper()
	sb, ref := pair[0], pair[1]
	if sb.CPU != ref.CPU {
		t.Fatalf("%s: superblock CPU diverged from interp:\nsuperblock: %+v\n    interp: %+v",
			tag, sb.CPU, ref.CPU)
	}
	if sb.Stats.Arch() != ref.Stats.Arch() {
		t.Fatalf("%s: superblock stats diverged from interp:\nsuperblock: %v\n    interp: %v",
			tag, sb.Stats, ref.Stats)
	}
}

// comparePair asserts full agreement including the memory image.
func comparePair(t testing.TB, pair [2]*Machine, tag string) {
	t.Helper()
	comparePairCPU(t, pair, tag)
	if !bytes.Equal(pair[0].Bus.Snapshot(), pair[1].Bus.Snapshot()) {
		t.Fatalf("%s: superblock memory diverged from interp", tag)
	}
}

// pairDo applies the same mutation to both machines.
func pairDo(pair [2]*Machine, f func(m *Machine)) {
	for _, m := range pair {
		f(m)
	}
}

// stepPair steps both machines once and asserts the events agree.
func stepPair(t testing.TB, pair [2]*Machine, tag string) {
	t.Helper()
	evS, evI := pair[0].Step(), pair[1].Step()
	if evS != evI {
		t.Fatalf("%s (step %d): event diverged: superblock=%v interp=%v",
			tag, pair[0].Stats.Steps, evS, evI)
	}
}

// TestSuperblockDifferential drives the two engines through Run in
// random batch sizes from randomized any-state starts, injecting
// identical faults between batches. Every batch boundary asserts
// CPU-and-stats agreement; every trial ends with a full memory compare.
func TestSuperblockDifferential(t *testing.T) {
	trials, batches := 12, 400
	if testing.Short() {
		trials, batches = 4, 120
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(777000 + trial)))
		pair := newPairMachines(t, Options{
			ResetVector:        SegOff{0x0100, 0},
			NMICounter:         trial%2 == 0,
			HardwiredNMIVector: trial%3 == 0,
			NMIVector:          SegOff{0xF000, 0},
			ExceptionPolicy:    []ExceptionPolicy{ExceptionHalt, ExceptionVector, ExceptionIDT}[trial%3],
			ExceptionVector:    SegOff{0xF000, 0},
			MemoryProtection:   trial%5 == 0,
		})

		// Any-state start: identical random soup in RAM and a random
		// CPU configuration on both.
		for i := 0; i < 8192; i++ {
			a := uint32(rng.Intn(mem.AddrSpace))
			v := byte(rng.Intn(256))
			pairDo(pair, func(m *Machine) { m.Bus.PokeRAM(a, v) })
		}
		cpu := pair[0].CPU
		for i := range cpu.R {
			cpu.R[i] = uint16(rng.Intn(1 << 16))
		}
		for i := range cpu.S {
			cpu.S[i] = uint16(rng.Intn(1 << 16))
		}
		cpu.IP = uint16(rng.Intn(1 << 16))
		cpu.Flags = isa.Flags(rng.Intn(1 << 16))
		cpu.NMICounter = uint16(rng.Intn(1 << 16))
		pairDo(pair, func(m *Machine) { m.CPU = cpu })

		for b := 0; b < batches; b++ {
			if rng.Intn(4) == 0 {
				// Identical fault between batches.
				switch rng.Intn(6) {
				case 0:
					a := uint32(rng.Intn(mem.AddrSpace))
					v := byte(rng.Intn(256))
					pairDo(pair, func(m *Machine) { m.Bus.PokeRAM(a, v) })
				case 1: // aim at the live code stream
					a := (uint32(pair[0].CPU.S[isa.CS])<<4 + uint32(pair[0].CPU.IP) + uint32(rng.Intn(16))) & mem.AddrMask
					v := byte(rng.Intn(256))
					pairDo(pair, func(m *Machine) { m.Bus.PokeRAM(a, v) })
				case 2:
					v := uint16(rng.Intn(1 << 16))
					pairDo(pair, func(m *Machine) { m.CPU.IP = v })
				case 3:
					r := isa.SReg(rng.Intn(int(isa.NumSRegs)))
					v := uint16(rng.Intn(1 << 16))
					pairDo(pair, func(m *Machine) { m.CPU.S[r] = v })
				case 4:
					pairDo(pair, func(m *Machine) { m.RaiseNMI() })
				case 5:
					v := rng.Intn(2) == 0
					pairDo(pair, func(m *Machine) { m.CPU.Halted = v })
				}
			}
			n := rng.Intn(97) + 1
			pairDo(pair, func(m *Machine) { m.Run(n) })
			comparePairCPU(t, pair, "trial batch")
		}
		comparePair(t, pair, "trial final")
	}
}

// TestSuperblockSelfModifyingStoreInsideBlock pins the hardest
// staleness case for the batched engine with an exact program: a store
// INSIDE the currently executing superblock overwrites a later entry of
// that same block. The block was predecoded before the store ran, so an
// engine that skipped revalidation between entries would execute the
// stale nop; the write stamp must force a bail and the freshly written
// hlt must execute. Straight-line code, so all instructions share one
// block:
//
//	0: mov word [ds:6], hlt|hlt<<8  ; overwrites entries at offsets 6,7
//	6: nop                          ; stale: now hlt
//	7: nop                          ; stale: now hlt
//	8: nop
func TestSuperblockSelfModifyingStoreInsideBlock(t *testing.T) {
	hlt := uint16(isa.OpHlt) | uint16(isa.OpHlt)<<8
	code := prog(
		isa.Inst{Op: isa.OpMovMI, Mem: isa.MemOp{Seg: isa.DS, Disp: 6}, Imm: hlt},
		isa.Inst{Op: isa.OpNop},
		isa.Inst{Op: isa.OpNop},
		isa.Inst{Op: isa.OpNop},
	)
	if len(code) != 9 {
		t.Fatalf("encoding drifted: len=%d, fix the store target", len(code))
	}
	pair := newPairMachines(t, Options{ResetVector: SegOff{0x0100, 0}})
	for i, b := range code {
		a := 0x1000 + uint32(i)
		pairDo(pair, func(m *Machine) { m.Bus.PokeRAM(a, b) })
	}
	pairDo(pair, func(m *Machine) {
		m.CPU.S[isa.DS] = 0x0100
		m.Run(2) // mov (store into own block), then the stale slot
	})
	for i, m := range pair {
		if !m.CPU.Halted {
			t.Fatalf("%s: stale block entry served: self-modified hlt "+
				"did not execute (ip=%#x)", pairLabels[i], m.CPU.IP)
		}
		if m.Stats.Steps != 2 || m.Stats.Instrs != 2 {
			t.Fatalf("%s: accounting: %v", pairLabels[i], m.Stats)
		}
	}
	comparePair(t, pair, "in-block self-modify")
}

// TestSuperblockHookPokesLiveBlock pins the hooked path: an AfterStep
// hook that overwrites a later entry of the block being executed must
// be seen before that entry runs. With a hook installed every step
// retires through sbExec, whose per-entry write-stamp check is all
// that stands between the poke and a stale nop. A second hook rewrites
// ip into the middle of the block, which the (lin, ip) check must
// honour on the very next step.
//
//	0..7: nop ×8   ; one block; the hook pokes hlt over offset 5
//	8:    jmp 0
func TestSuperblockHookPokesLiveBlock(t *testing.T) {
	code := make([]byte, 0, 16)
	for i := 0; i < 8; i++ {
		code = append(code, prog(isa.Inst{Op: isa.OpNop})...)
	}
	code = append(code, prog(isa.Inst{Op: isa.OpJmp, Imm: 0})...)
	pair := newPairMachines(t, Options{ResetVector: SegOff{0x0100, 0}})
	for i, b := range code {
		a := 0x1000 + uint32(i)
		pairDo(pair, func(m *Machine) { m.Bus.PokeRAM(a, b) })
	}
	pairDo(pair, func(m *Machine) {
		m.AfterStep = func(m *Machine, _ Event) {
			if m.Stats.Steps == 2 {
				m.Bus.PokeRAM(0x1005, byte(isa.OpHlt))
			}
		}
		m.Run(10)
	})
	for i, m := range pair {
		if !m.CPU.Halted || m.Stats.Instrs != 6 || m.CPU.IP != 6 {
			t.Fatalf("%s: hook's poke into the live block not seen: halted=%v ip=%#x %v",
				pairLabels[i], m.CPU.Halted, m.CPU.IP, m.Stats)
		}
	}
	if pair[0].Stats.BlockInstrs == 0 {
		t.Fatalf("superblock: hooked steps bypassed the engine: %v", pair[0].Stats)
	}
	comparePair(t, pair, "hook poke")

	// Restart at the top; at step 12 the hook moves ip to offset 3,
	// skipping entries 1 and 2 of the block the cursor is in.
	pairDo(pair, func(m *Machine) {
		m.Bus.PokeRAM(0x1005, byte(isa.OpNop))
		m.CPU.Halted, m.CPU.IP = false, 0
		m.AfterStep = func(m *Machine, _ Event) {
			if m.Stats.Steps == 12 {
				m.CPU.IP = 3
			}
		}
		m.Run(10)
	})
	comparePair(t, pair, "hook ip rewrite")
}

// TestSuperblockNegativeDecodeRevalidates pins the negative-caching
// regression for the engine's negative blocks, which memoize "these
// bytes do not decode". A machine parked on an invalid opcode raises
// (and caches the verdict);
// after the byte is overwritten with a valid instruction, the very next
// step must execute it — a stale negative verdict would raise again.
func TestSuperblockNegativeDecodeRevalidates(t *testing.T) {
	pair := newPairMachines(t, Options{
		ResetVector:     SegOff{0x0100, 0},
		ExceptionPolicy: ExceptionHalt,
	})
	const invalid = 0xFF // no opcode is defined at 0xFF
	if isa.InstLen(invalid) != 0 {
		t.Fatal("0xFF unexpectedly decodes; pick another invalid byte")
	}
	pairDo(pair, func(m *Machine) { m.Bus.PokeRAM(0x1000, invalid) })

	// Two steps on the invalid byte: raise, halt, raise again after
	// unhalting — the second raise is served from the negative cache.
	pairDo(pair, func(m *Machine) {
		m.Run(1)
		m.CPU.Halted = false
		m.Run(1)
		m.CPU.Halted = false
	})
	for i, m := range pair {
		if m.Stats.Exceptions != 2 {
			t.Fatalf("%s: exceptions = %d, want 2", pairLabels[i], m.Stats.Exceptions)
		}
	}

	// Overwrite with a valid instruction; the cached negative verdict is
	// now stale and must not be served.
	mov := prog(isa.Inst{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0xBEEF})
	for i, b := range mov {
		a := 0x1000 + uint32(i)
		pairDo(pair, func(m *Machine) { m.Bus.PokeRAM(a, b) })
	}
	pairDo(pair, func(m *Machine) { m.Run(1) })
	for i, m := range pair {
		if m.Stats.Exceptions != 2 || m.CPU.R[isa.AX] != 0xBEEF {
			t.Fatalf("%s: stale negative decode served: exceptions=%d ax=%#x",
				pairLabels[i], m.Stats.Exceptions, m.CPU.R[isa.AX])
		}
	}
	comparePair(t, pair, "negative revalidate")
}

// TestSuperblockTelemetryCounts sanity-checks the engine telemetry on a
// known workload: a straight-line run into a tight loop must retire
// essentially every instruction through blocks, with zero bails, and
// the block counters must stay zero on the interpreter, which cannot
// produce them.
func TestSuperblockTelemetryCounts(t *testing.T) {
	code := prog(
		isa.Inst{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0}, // 4 bytes
		isa.Inst{Op: isa.OpIncR, R1: r(isa.AX)},          // at offset 4
		isa.Inst{Op: isa.OpJmp, Imm: 4},                  // loop back to the inc
	)
	pair := newPairMachines(t, Options{ResetVector: SegOff{0x0100, 0}})
	for i, b := range code {
		a := 0x1000 + uint32(i)
		pairDo(pair, func(m *Machine) { m.Bus.PokeRAM(a, b) })
	}
	pairDo(pair, func(m *Machine) { m.Run(1000) })
	sb := pair[0]
	if sb.Stats.BlockInstrs != 1000 || sb.Stats.Blocks == 0 || sb.Stats.BlockBails != 0 {
		t.Fatalf("superblock telemetry off: %v", sb.Stats)
	}
	if s := pair[1].Stats; s.Blocks != 0 || s.BlockInstrs != 0 || s.BlockBails != 0 {
		t.Fatalf("interp: phantom block telemetry: %v", s)
	}
	comparePair(t, pair, "telemetry")
}

// TestSuperblockBailResumesInterpreter forces a mid-block bail through
// an asynchronous CPU corruption (ip rewritten between batches while
// the cursor is mid-block) and checks the engines stay in agreement —
// the bail itself is invisible architecturally.
func TestSuperblockBailResumesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	code := make([]byte, 0, 64)
	for i := 0; i < 12; i++ {
		code = append(code, prog(
			isa.Inst{Op: isa.OpMovRI, R1: r(isa.AX), Imm: uint16(i)},
			isa.Inst{Op: isa.OpIncR, R1: r(isa.BX)},
			isa.Inst{Op: isa.OpNop},
		)...)
	}
	code = append(code, prog(isa.Inst{Op: isa.OpJmp, Imm: 0})...)
	pair := newPairMachines(t, Options{ResetVector: SegOff{0x0100, 0}})
	for i, b := range code {
		a := 0x1000 + uint32(i)
		pairDo(pair, func(m *Machine) { m.Bus.PokeRAM(a, b) })
	}
	for i := 0; i < 500; i++ {
		n := rng.Intn(5) + 1 // short batches leave the cursor mid-block
		pairDo(pair, func(m *Machine) { m.Run(n) })
		if rng.Intn(3) == 0 {
			ip := uint16(rng.Intn(len(code)))
			pairDo(pair, func(m *Machine) { m.CPU.IP = ip })
		}
		comparePairCPU(t, pair, "bail batch")
	}
	if pair[0].Stats.BlockBails == 0 {
		t.Fatal("schedule never produced a mid-block bail; weaken the corruption odds")
	}
	comparePair(t, pair, "bail final")
}

// TestDecodeCacheStosbOverwritesCachedInstruction pins the classic
// stale-decode hazard with an exact program, on both engines: an
// instruction is executed (and so decoded into a block), then the
// guest's own stosb overwrites it, then it is re-executed. The
// overwritten form must execute — an engine serving the stale decode
// would run the old instruction.
//
//	0: nop      ; executed first, lands in a block
//	1: stosb    ; al=hlt -> es:di = cs:0, overwriting the nop
//	2: jmp 0    ; back to the (now rewritten) slot
func TestDecodeCacheStosbOverwritesCachedInstruction(t *testing.T) {
	pair := newPairMachines(t, Options{ResetVector: SegOff{0x0100, 0}})
	code := []byte{byte(isa.OpNop), byte(isa.OpStosb), byte(isa.OpJmp), 0, 0}
	for i, b := range code {
		a := 0x1000 + uint32(i)
		pairDo(pair, func(m *Machine) { m.Bus.PokeRAM(a, b) })
	}
	pairDo(pair, func(m *Machine) {
		m.CPU.R[isa.AX] = uint16(isa.OpHlt) // al = hlt
		m.CPU.R[isa.DI] = 0
		m.CPU.S[isa.ES] = 0x0100
		// nop, stosb, jmp, then the rewritten slot: it must be hlt.
		m.Run(4)
	})
	for i, m := range pair {
		if !m.CPU.Halted {
			t.Fatalf("%s: stale decode served: machine did not execute "+
				"the self-modified hlt (ip=%#x)", pairLabels[i], m.CPU.IP)
		}
	}
	comparePair(t, pair, "stosb overwrite")
}

// TestDecodeCacheGuestStoreDifferential drives the two engines one
// Step at a time through byte soup that is dense in store
// instructions, with registers repeatedly pointed back at the code
// region so guest stores (StoreByte and StoreWord paths, not just
// Poke) land on executed instructions. Events must agree on every
// step.
func TestDecodeCacheGuestStoreDifferential(t *testing.T) {
	storeOps := []isa.Op{isa.OpStosb, isa.OpMovsb, isa.OpRepMovsb, isa.OpMovMR, isa.OpMovMI}
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 30; trial++ {
		pair := newPairMachines(t, Options{ResetVector: SegOff{0x0100, 0}})
		// Code soup biased toward stores, identical on both machines.
		for i := 0; i < 2048; i++ {
			var b byte
			if rng.Intn(3) == 0 {
				b = byte(storeOps[rng.Intn(len(storeOps))])
			} else {
				b = byte(rng.Intn(256))
			}
			a := 0x1000 + uint32(i)
			pairDo(pair, func(m *Machine) { m.Bus.PokeRAM(a, b) })
		}
		for i := 0; i < 4000; i++ {
			if i%97 == 0 {
				// Re-aim the string/store registers at the code so the
				// soup keeps rewriting itself.
				seg, di, si := uint16(0x0100), uint16(rng.Intn(2048)), uint16(rng.Intn(2048))
				ax := uint16(rng.Intn(1 << 16))
				cx := uint16(rng.Intn(64))
				ip := uint16(rng.Intn(2048))
				pairDo(pair, func(m *Machine) {
					m.CPU.S[isa.ES], m.CPU.S[isa.DS] = seg, seg
					m.CPU.R[isa.DI], m.CPU.R[isa.SI] = di, si
					m.CPU.R[isa.AX], m.CPU.R[isa.CX] = ax, cx
					m.CPU.S[isa.CS] = seg
					m.CPU.IP = ip
					m.CPU.Halted = false
				})
			}
			stepPair(t, pair, "guest-store soup")
		}
		comparePair(t, pair, "guest-store soup/final")
	}
}

// TestSuperblockChainIntoNegativeBlock pins Step totality when the turbo
// lane's succ hint points at a slot that sbBuild rebuilt in place as a
// negative block. P and H chain through each other's hints; H's head
// byte is then clobbered, so its next entry rebuilds the very struct P's
// hint points to with no entries and raises; the handler jumps back to
// P, whose exhausted block must not follow the hint into H's empty
// entry list.
//
//	0100:0000  P: nop; jmp 0x100
//	0100:0100  H: nop; jmp 0      (head then clobbered with 0xFF)
//	0100:0200  exception handler: jmp 0
func TestSuperblockChainIntoNegativeBlock(t *testing.T) {
	pair := newPairMachines(t, Options{
		ResetVector:     SegOff{0x0100, 0},
		ExceptionPolicy: ExceptionVector,
		ExceptionVector: SegOff{0x0100, 0x200},
	})
	load := func(at uint32, ins ...isa.Inst) {
		for i, b := range prog(ins...) {
			a := at + uint32(i)
			pairDo(pair, func(m *Machine) { m.Bus.PokeRAM(a, b) })
		}
	}
	load(0x1000, isa.Inst{Op: isa.OpNop}, isa.Inst{Op: isa.OpJmp, Imm: 0x100})
	load(0x1100, isa.Inst{Op: isa.OpNop}, isa.Inst{Op: isa.OpJmp, Imm: 0})
	load(0x1200, isa.Inst{Op: isa.OpJmp, Imm: 0})
	pairDo(pair, func(m *Machine) { m.Run(100) })
	comparePair(t, pair, "chain warm-up")
	pairDo(pair, func(m *Machine) {
		m.Bus.PokeRAM(0x1100, 0xFF)
		m.Run(100)
	})
	for i, m := range pair {
		if m.Stats.Exceptions == 0 {
			t.Fatalf("%s: clobbered head never raised: %v", pairLabels[i], m.Stats)
		}
	}
	comparePair(t, pair, "chain into negative block")
}
