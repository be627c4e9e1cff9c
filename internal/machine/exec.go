package machine

import "ssos/internal/isa"

// execute performs one fetch-decode-execute unit of work through the
// byte-wise fetch path: the reference interpreter. Invalid encodings
// raise the invalid-opcode exception; faulting stores raise the
// general-protection exception with ip still addressing the faulting
// instruction.
func (m *Machine) execute() Event {
	in, size, ok := m.fetch()
	if !ok {
		return m.raiseException(VecInvalidOpcode)
	}
	return ops[in.Op](m, in, m.CPU.IP+uint16(size))
}

// fetch reads and decodes the instruction at cs:ip. Offsets wrap
// within the 64 KiB segment and linear addresses within the 20-bit
// space, as on real hardware. The first byte bounds the read via
// isa.InstLen, so short instructions cost proportionally fewer bus
// loads. The decoded instruction lands in the machine's scratch slot,
// so the step loop never allocates.
func (m *Machine) fetch() (*isa.Inst, int, bool) {
	var buf [isa.MaxInstrSize]byte
	buf[0] = m.Bus.LoadByte(m.Linear(isa.CS, m.CPU.IP))
	n := isa.InstLen(buf[0])
	if n == 0 {
		n = 1 // invalid opcode: Decode needs only the first byte
	}
	for i := 1; i < n; i++ {
		buf[i] = m.Bus.LoadByte(m.Linear(isa.CS, m.CPU.IP+uint16(i)))
	}
	in, size, ok := isa.Decode(buf[:n])
	m.fetched = in
	return &m.fetched, size, ok
}

// opFn executes one decoded instruction whose first byte the current
// ip addresses, with nextIP its sequential successor (ip+size). Every
// opcode's semantics lives in exactly one opFn, shared by both
// engines: the interpreter (execute, above) indexes ops per fetch, the
// superblock engine (superblock.go) stores the entry's opFn and its
// nextIP at block-build time. A normal exit sets ip (nextIP for every
// non-branching instruction) and counts the instruction; a fault
// raises an exception with ip unchanged.
type opFn func(m *Machine, in *isa.Inst, nextIP uint16) Event

// ops is the opcode table; undefined opcodes hold opInvalid.
var ops [256]opFn

// The table init is a noalloc root: both engines reach the opFns only
// through ops (func values, outside the static call graph), so rooting
// the table population here pulls every opFn into the hot closure.
//
//ssos:hotpath
func init() {
	for i := range ops {
		ops[i] = opInvalid
	}
	ops[isa.OpNop] = opNop
	ops[isa.OpHlt] = opHlt
	ops[isa.OpCld] = opCld
	ops[isa.OpStd] = opStd
	ops[isa.OpSti] = opSti
	ops[isa.OpCli] = opCli
	ops[isa.OpIret] = opIret
	ops[isa.OpPushf] = opPushf
	ops[isa.OpPopf] = opPopf
	ops[isa.OpMovRI] = opMovRI
	ops[isa.OpMovRR] = opMovRR
	ops[isa.OpMovSR] = opMovSR
	ops[isa.OpMovRS] = opMovRS
	ops[isa.OpMovRM] = opMovRM
	ops[isa.OpMovMR] = opMovMR
	ops[isa.OpMovMI] = opMovMI
	ops[isa.OpMovSM] = opMovSM
	ops[isa.OpMovMS] = opMovMS
	ops[isa.OpMovR8I] = opMovR8I
	ops[isa.OpMovR8R8] = opMovR8R8
	ops[isa.OpAddRR] = opAddRR
	ops[isa.OpAddRI] = opAddRI
	ops[isa.OpAddRM] = opAddRM
	ops[isa.OpSubRR] = opSubRR
	ops[isa.OpSubRI] = opSubRI
	ops[isa.OpIncR] = opIncR
	ops[isa.OpDecR] = opDecR
	ops[isa.OpAndRR] = opAndRR
	ops[isa.OpAndRI] = opAndRI
	ops[isa.OpOrRR] = opOrRR
	ops[isa.OpOrRI] = opOrRI
	ops[isa.OpXorRR] = opXorRR
	ops[isa.OpCmpRR] = opCmpRR
	ops[isa.OpCmpRI] = opCmpRI
	ops[isa.OpCmpRM] = opCmpRM
	ops[isa.OpLea] = opLea
	ops[isa.OpMulR8] = opMulR8
	ops[isa.OpShlRI] = opShlRI
	ops[isa.OpShrRI] = opShrRI
	ops[isa.OpJmp] = opJmp
	ops[isa.OpJmpFar] = opJmpFar
	ops[isa.OpJe] = opJe
	ops[isa.OpJne] = opJne
	ops[isa.OpJb] = opJb
	ops[isa.OpJbe] = opJbe
	ops[isa.OpJa] = opJa
	ops[isa.OpJae] = opJae
	ops[isa.OpLoop] = opLoop
	ops[isa.OpCall] = opCall
	ops[isa.OpRet] = opRet
	ops[isa.OpPushR] = opPushR
	ops[isa.OpPopR] = opPopR
	ops[isa.OpPushI] = opPushI
	ops[isa.OpPushS] = opPushS
	ops[isa.OpPopS] = opPopS
	ops[isa.OpMovsb] = opMovsb
	ops[isa.OpRepMovsb] = opRepMovsb
	ops[isa.OpStosb] = opStosb
	ops[isa.OpLodsb] = opLodsb
	ops[isa.OpOutI] = opOutI
	ops[isa.OpInI] = opInI
	ops[isa.OpOutDx] = opOutDx
	ops[isa.OpInDx] = opInDx
	ops[isa.OpInt] = opInt
	ops[isa.OpWPSet] = opWPSet
}

// next retires the current instruction: ip moves to nextIP (the
// sequential successor, or a branch target) and it counts once.
func (m *Machine) next(nextIP uint16) Event {
	m.CPU.IP = nextIP
	m.Stats.Instrs++
	return EventInstr
}

// branch retires a conditional branch: to in.Imm when taken, else to
// the sequential successor.
func (m *Machine) branch(taken bool, in *isa.Inst, nextIP uint16) Event {
	if taken {
		nextIP = in.Imm
	}
	return m.next(nextIP)
}

// pushOp is the body of every guest push: a faulting push leaves sp
// unchanged and raises #GP, else execution resumes at target.
func (m *Machine) pushOp(v, target uint16) Event {
	if !m.pushGuarded(v) {
		m.CPU.R[isa.SP] += 2
		return m.raiseException(VecGP)
	}
	return m.next(target)
}

// storeOp is the body of every word store through a memory operand.
func (m *Machine) storeOp(in *isa.Inst, v, nextIP uint16) Event {
	if !m.storeMem(in, v) {
		return m.raiseException(VecGP)
	}
	return m.next(nextIP)
}

func opInvalid(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.raiseException(VecInvalidOpcode)
}

func opNop(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.next(nextIP)
}

func opHlt(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.Halted = true
	return m.next(nextIP)
}

func opCld(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.Flags = m.CPU.Flags.Without(isa.FlagDF)
	return m.next(nextIP)
}

func opStd(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.Flags = m.CPU.Flags.With(isa.FlagDF)
	return m.next(nextIP)
}

func opSti(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.Flags = m.CPU.Flags.With(isa.FlagIF)
	return m.next(nextIP)
}

func opCli(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.Flags = m.CPU.Flags.Without(isa.FlagIF)
	return m.next(nextIP)
}

// opIret pops ip, cs and flags and re-arms the NMI machinery. With the
// paper's counter hardware, iret zeroes the counter so a pending NMI
// is deliverable immediately (Section 2).
func opIret(m *Machine, in *isa.Inst, nextIP uint16) Event {
	c := &m.CPU
	ip := m.pop()
	c.S[isa.CS] = m.pop()
	c.Flags = isa.Flags(m.pop())
	c.NMICounter = 0
	c.InNMI = false
	return m.next(ip)
}

func opPushf(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.pushOp(uint16(m.CPU.Flags), nextIP)
}

func opPopf(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.Flags = isa.Flags(m.pop())
	return m.next(nextIP)
}

func opMovRI(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1] = in.Imm
	return m.next(nextIP)
}

func opMovRR(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1] = m.CPU.R[in.R2]
	return m.next(nextIP)
}

func opMovSR(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.S[in.R1] = m.CPU.R[in.R2]
	return m.next(nextIP)
}

func opMovRS(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1] = m.CPU.S[in.R2]
	return m.next(nextIP)
}

func opMovRM(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1] = m.loadMem(in)
	return m.next(nextIP)
}

func opMovMR(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.storeOp(in, m.CPU.R[in.R1], nextIP)
}

func opMovMI(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.storeOp(in, in.Imm, nextIP)
}

func opMovSM(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.S[in.R1] = m.loadMem(in)
	return m.next(nextIP)
}

func opMovMS(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.storeOp(in, m.CPU.S[in.R1], nextIP)
}

func opMovR8I(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.SetReg8(isa.Reg8(in.R1), uint8(in.Imm))
	return m.next(nextIP)
}

func opMovR8R8(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.SetReg8(isa.Reg8(in.R1), m.CPU.Reg8(isa.Reg8(in.R2)))
	return m.next(nextIP)
}

func opAddRR(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1] = m.add16(m.CPU.R[in.R1], m.CPU.R[in.R2])
	return m.next(nextIP)
}

func opAddRI(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1] = m.add16(m.CPU.R[in.R1], in.Imm)
	return m.next(nextIP)
}

func opAddRM(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1] = m.add16(m.CPU.R[in.R1], m.loadMem(in))
	return m.next(nextIP)
}

func opSubRR(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1] = m.sub16(m.CPU.R[in.R1], m.CPU.R[in.R2])
	return m.next(nextIP)
}

func opSubRI(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1] = m.sub16(m.CPU.R[in.R1], in.Imm)
	return m.next(nextIP)
}

// opIncR and opDecR preserve CF, as on x86.
func opIncR(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1]++
	m.setZS(m.CPU.R[in.R1])
	return m.next(nextIP)
}

func opDecR(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1]--
	m.setZS(m.CPU.R[in.R1])
	return m.next(nextIP)
}

func opAndRR(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1] = m.logic16(m.CPU.R[in.R1] & m.CPU.R[in.R2])
	return m.next(nextIP)
}

func opAndRI(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1] = m.logic16(m.CPU.R[in.R1] & in.Imm)
	return m.next(nextIP)
}

func opOrRR(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1] = m.logic16(m.CPU.R[in.R1] | m.CPU.R[in.R2])
	return m.next(nextIP)
}

func opOrRI(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1] = m.logic16(m.CPU.R[in.R1] | in.Imm)
	return m.next(nextIP)
}

func opXorRR(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1] = m.logic16(m.CPU.R[in.R1] ^ m.CPU.R[in.R2])
	return m.next(nextIP)
}

func opCmpRR(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.sub16(m.CPU.R[in.R1], m.CPU.R[in.R2])
	return m.next(nextIP)
}

func opCmpRI(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.sub16(m.CPU.R[in.R1], in.Imm)
	return m.next(nextIP)
}

func opCmpRM(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.sub16(m.CPU.R[in.R1], m.loadMem(in))
	return m.next(nextIP)
}

func opLea(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1] = m.effOff(in)
	return m.next(nextIP)
}

// opMulR8 computes ax = al * r8; carry/overflow signal a non-zero
// high byte.
func opMulR8(m *Machine, in *isa.Inst, nextIP uint16) Event {
	c := &m.CPU
	prod := uint16(c.Reg8(isa.AL)) * uint16(c.Reg8(isa.Reg8(in.R1)))
	c.R[isa.AX] = prod
	c.Flags = c.Flags.Set(isa.FlagCF|isa.FlagOF, prod>>8 != 0)
	return m.next(nextIP)
}

func opShlRI(m *Machine, in *isa.Inst, nextIP uint16) Event {
	c := &m.CPU
	n := uint(in.Imm) & 31
	v := c.R[in.R1]
	if n > 0 && n <= 16 {
		c.Flags = c.Flags.Set(isa.FlagCF, v>>(16-n)&1 != 0)
	}
	c.R[in.R1] = m.logicKeepCF(v << n)
	return m.next(nextIP)
}

func opShrRI(m *Machine, in *isa.Inst, nextIP uint16) Event {
	c := &m.CPU
	n := uint(in.Imm) & 31
	v := c.R[in.R1]
	if n > 0 && n <= 16 {
		c.Flags = c.Flags.Set(isa.FlagCF, v>>(n-1)&1 != 0)
	}
	c.R[in.R1] = m.logicKeepCF(v >> n)
	return m.next(nextIP)
}

func opJmp(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.next(in.Imm)
}

func opJmpFar(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.S[isa.CS] = in.Imm
	return m.next(in.Imm2)
}

func opJe(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.branch(m.CPU.Flags.Has(isa.FlagZF), in, nextIP)
}

func opJne(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.branch(!m.CPU.Flags.Has(isa.FlagZF), in, nextIP)
}

func opJb(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.branch(m.CPU.Flags.Has(isa.FlagCF), in, nextIP)
}

func opJbe(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.branch(m.CPU.Flags.Has(isa.FlagCF) || m.CPU.Flags.Has(isa.FlagZF), in, nextIP)
}

func opJa(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.branch(!m.CPU.Flags.Has(isa.FlagCF) && !m.CPU.Flags.Has(isa.FlagZF), in, nextIP)
}

func opJae(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.branch(!m.CPU.Flags.Has(isa.FlagCF), in, nextIP)
}

func opLoop(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[isa.CX]--
	return m.branch(m.CPU.R[isa.CX] != 0, in, nextIP)
}

func opCall(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.pushOp(nextIP, in.Imm)
}

func opRet(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.next(m.pop())
}

func opPushR(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.pushOp(m.CPU.R[in.R1], nextIP)
}

func opPopR(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[in.R1] = m.pop()
	return m.next(nextIP)
}

func opPushI(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.pushOp(in.Imm, nextIP)
}

func opPushS(m *Machine, in *isa.Inst, nextIP uint16) Event {
	return m.pushOp(m.CPU.S[in.R1], nextIP)
}

func opPopS(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.S[in.R1] = m.pop()
	return m.next(nextIP)
}

func opMovsb(m *Machine, in *isa.Inst, nextIP uint16) Event {
	if !m.movsbOnce() {
		return m.raiseException(VecGP)
	}
	return m.next(nextIP)
}

// opRepMovsb copies one byte per clock tick, resumably: ip stays on
// the instruction until cx reaches zero. This matches the paper's
// reading of rep movsb (Figure 1 line 9): a cx-bounded loop that
// always terminates because cx strictly decreases.
func opRepMovsb(m *Machine, in *isa.Inst, nextIP uint16) Event {
	c := &m.CPU
	if c.R[isa.CX] != 0 {
		if !m.movsbOnce() {
			return m.raiseException(VecGP)
		}
		c.R[isa.CX]--
		if c.R[isa.CX] != 0 {
			nextIP = c.IP
		}
	}
	return m.next(nextIP)
}

func opStosb(m *Machine, in *isa.Inst, nextIP uint16) Event {
	c := &m.CPU
	dst := m.Linear(isa.ES, c.R[isa.DI])
	if !m.storeAllowed(dst) || !m.Bus.StoreByte(dst, c.Reg8(isa.AL)) {
		return m.raiseException(VecGP)
	}
	c.R[isa.DI] = m.stringAdvance(c.R[isa.DI])
	return m.next(nextIP)
}

func opLodsb(m *Machine, in *isa.Inst, nextIP uint16) Event {
	c := &m.CPU
	c.SetReg8(isa.AL, m.Bus.LoadByte(m.Linear(isa.DS, c.R[isa.SI])))
	c.R[isa.SI] = m.stringAdvance(c.R[isa.SI])
	return m.next(nextIP)
}

func opOutI(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.portOut(in.Imm, m.CPU.R[isa.AX])
	return m.next(nextIP)
}

func opInI(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[isa.AX] = m.portIn(in.Imm)
	return m.next(nextIP)
}

func opOutDx(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.portOut(m.CPU.R[isa.DX], m.CPU.R[isa.AX])
	return m.next(nextIP)
}

func opInDx(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.R[isa.AX] = m.portIn(m.CPU.R[isa.DX])
	return m.next(nextIP)
}

// opInt delivers a software interrupt through the IDT, resuming after
// the int instruction on return.
func opInt(m *Machine, in *isa.Inst, nextIP uint16) Event {
	c := &m.CPU
	c.IP = nextIP
	m.Stats.Instrs++
	m.push(uint16(c.Flags))
	m.push(c.S[isa.CS])
	m.push(c.IP)
	c.Flags = c.Flags.Without(isa.FlagIF)
	target := m.idtEntry(uint8(in.Imm))
	c.S[isa.CS] = target.Seg
	c.IP = target.Off
	return EventInstr
}

func opWPSet(m *Machine, in *isa.Inst, nextIP uint16) Event {
	m.CPU.WP = m.CPU.R[in.R1]
	return m.next(nextIP)
}

// effOff computes a memory operand's effective offset (16-bit wrap
// within the segment). It and its siblings below are methods, not
// per-execute closures, so the fetch–decode–execute hot loop stays
// allocation-free.
func (m *Machine) effOff(in *isa.Inst) uint16 {
	off := in.Mem.Disp
	if r, useBase := in.Mem.Base.Reg(); useBase {
		off += m.CPU.R[r]
	}
	return off
}

// loadMem reads the 16-bit word addressed by in's memory operand.
func (m *Machine) loadMem(in *isa.Inst) uint16 {
	return m.LoadWord(in.Mem.Seg, m.effOff(in))
}

// storeMem writes v through in's memory operand, honouring the
// memory-protection window and the ROM write policy.
func (m *Machine) storeMem(in *isa.Inst, v uint16) bool {
	off := m.effOff(in)
	if !m.storeAllowed(m.Linear(in.Mem.Seg, off)) {
		return false
	}
	return m.StoreWord(in.Mem.Seg, off, v)
}

// storeAllowed reports whether a data store to the linear address is
// permitted under the memory-protection extension: always, unless the
// option is on, FlagWP is set, and the executing code resides in RAM
// while the target lies outside the 4 KiB window at WP<<4. ROM-resident
// code (the stabilizers) is exempt, playing supervisor.
func (m *Machine) storeAllowed(addr uint32) bool {
	if !m.Opts.MemoryProtection || !m.CPU.Flags.Has(isa.FlagWP) {
		return true
	}
	if m.Bus.InROM(m.CPU.PC().Linear()) {
		return true
	}
	base := uint32(m.CPU.WP) << 4
	return addr >= base && addr+1 < base+WPWindowSize
}

// pushGuarded is push with the memory-protection check applied (guest
// pushes only; interrupt-delivery pushes are hardware and exempt).
func (m *Machine) pushGuarded(v uint16) bool {
	target := m.Linear(isa.SS, m.CPU.R[isa.SP]-2)
	if !m.storeAllowed(target) {
		// Mirror push's sp decrement so the caller's uniform fault
		// cleanup (sp += 2) leaves sp unchanged either way.
		m.CPU.R[isa.SP] -= 2
		return false
	}
	return m.push(v)
}

// movsbOnce copies one byte ds:si -> es:di and advances the index
// registers per the direction flag.
func (m *Machine) movsbOnce() bool {
	c := &m.CPU
	dst := m.Linear(isa.ES, c.R[isa.DI])
	if !m.storeAllowed(dst) {
		return false
	}
	b := m.Bus.LoadByte(m.Linear(isa.DS, c.R[isa.SI]))
	ok := m.Bus.StoreByte(dst, b)
	c.R[isa.SI] = m.stringAdvance(c.R[isa.SI])
	c.R[isa.DI] = m.stringAdvance(c.R[isa.DI])
	return ok
}

func (m *Machine) stringAdvance(v uint16) uint16 {
	if m.CPU.Flags.Has(isa.FlagDF) {
		return v - 1
	}
	return v + 1
}

// setZS updates the zero and sign flags from a result. The sign bit is
// shifted into place rather than tested: this runs once per ALU
// instruction, so it stays branch-light.
func (m *Machine) setZS(v uint16) {
	f := m.CPU.Flags&^(isa.FlagZF|isa.FlagSF) | isa.Flags(v>>13)&isa.FlagSF
	if v == 0 {
		f |= isa.FlagZF
	}
	m.CPU.Flags = f
}

// logic16 sets flags for a bitwise result (clears CF/OF) and returns it.
func (m *Machine) logic16(v uint16) uint16 {
	m.setZS(v)
	m.CPU.Flags = m.CPU.Flags.Without(isa.FlagCF | isa.FlagOF)
	return v
}

// logicKeepCF sets ZF/SF and clears OF, preserving CF (shift results).
func (m *Machine) logicKeepCF(v uint16) uint16 {
	m.setZS(v)
	m.CPU.Flags = m.CPU.Flags.Without(isa.FlagOF)
	return v
}

// add16 computes a+b with full flag semantics.
func (m *Machine) add16(a, b uint16) uint16 {
	r := a + b
	m.setZS(r)
	m.CPU.Flags = m.CPU.Flags.
		Set(isa.FlagCF, r < a).
		Set(isa.FlagOF, (a^r)&(b^r)&0x8000 != 0)
	return r
}

// sub16 computes a-b with full flag semantics (also used by cmp).
func (m *Machine) sub16(a, b uint16) uint16 {
	r := a - b
	m.setZS(r)
	m.CPU.Flags = m.CPU.Flags.
		Set(isa.FlagCF, a < b).
		Set(isa.FlagOF, (a^b)&(a^r)&0x8000 != 0)
	return r
}
