package machine

import (
	"ssos/internal/isa"
	"ssos/internal/mem"
)

// The superblock engine: batch-validated, threaded dispatch for the
// step loop.
//
// The reference interpreter (execute) fetches and decodes the bytes at
// cs:ip on every step. This engine decodes straight-line runs once
// into superblocks — runs ending at a serialize point (branch/jump/
// call/ret, int/iret, hlt, port I/O, rep movsb, a write to cs; see
// isa.Serializing) — records the set of distinct mem.PageSize-byte
// pages the run's bytes span, validates all their write-generations
// once on block entry, and then executes the run by calling each
// entry's opFn (the same ops table entry the interpreter would
// dispatch to) with its precomputed nextIP.
//
// Soundness from ANY configuration is non-negotiable, so a block is a
// transparent batching of N interpreter steps, not a new semantics:
//
//   - Per-step skeleton: run (step.go) performs the whole step
//     skeleton for every step, with only the instruction slot served
//     by the engine (sbExec). Its turbo lane (sbTurbo) elides the
//     skeleton checks that are provably dead — no AfterStep hook, no
//     pins latched, not halted, no ticker due to act: the lane stops at
//     the tickers' quiet horizon (Ticker.Quiet) and their countdown
//     ticks are settled in bulk (Ticker.Skip) — and re-establishes
//     them at every block boundary,
//     the only place an instruction can violate them (port I/O, hlt and
//     int are serialize points, hence always block-final; a port access
//     settles the tickers before its device runs). Interrupts, resets,
//     halts, acting device ticks and hooks therefore act between any
//     two entries, exactly as they act between any two interpreter
//     steps.
//   - Per-entry validation: before an entry runs, the engine checks
//     that the live cs:ip still addresses that entry. The check is
//     (e.ip == c.IP && e.lin == linear(cs, ip)): since cs<<4 ≡ lin−ip
//     (mod 2^20) the pair (lin, ip) determines cs uniquely, so a
//     passing check proves the entry's predecoded bytes and
//     precomputed nextIP describe precisely the instruction the
//     interpreter would fetch. Any divergence — an exception taken by
//     the previous entry, a ticker, hook or device corrupting
//     registers, an adopted snapshot — fails the compare and bails.
//   - Staleness: every path that alters memory — executed stores, test
//     Pokes, fault-injection PokeRAMs, snapshot Restores — bumps the
//     write-generation of the pages it touches and the bus write stamp
//     (mem.Bus.WriteStamp). While the stamp is unchanged since the
//     block's last validation, the block's bytes are provably unwritten
//     and entries run with zero generation checks; when it moved, the
//     engine re-checks the block's span pages against their build-time
//     generations and bails on any mismatch. There is no "flush"
//     anyone could forget to call: staleness is detected, not
//     prevented. A store into the current block's own span —
//     self-modifying code, or an AfterStep hook poking the code stream
//     — is therefore caught before the next entry runs, and the block
//     is rebuilt from the freshly written bytes.
//   - Spans: a decoded entry's span is its instruction's bytes; a
//     negative block (the head byte does not decode) spans exactly the
//     bytes the verdict depends on, max(isa.InstLen(b0), 1), per the
//     isa.InstLen cacheability contract, and raises the invalid-opcode
//     exception directly while it validates.
//
// Blocks are built only where neither the 16-bit segment offset nor
// the 20-bit linear range of a maximal instruction wraps; a
// wrap-adjacent head runs one interpreter step (execute), whose
// byte-wise fetch is the reference for wrap-around semantics. The
// interpreter remains the single source of truth for everything the
// engine does not batch.

const (
	// sbBits sizes the direct-mapped block table. Block heads are
	// jump targets and fall-through points, a handful per guest, so a
	// small table suffices; the index mixes high linear bits in so
	// same-alignment heads in different regions don't thrash one slot.
	sbBits = 10
	sbSize = 1 << sbBits
	sbMask = sbSize - 1

	// sbMaxLen caps entries per block; covers every loop body in the
	// repo's guests while keeping rebuild cost (after self-modification)
	// bounded.
	sbMaxLen = 32

	// sbMaxPages caps the distinct pages a block's bytes may span.
	// sbMaxLen entries of MaxInstrSize bytes fit in 3 pages; 4 leaves
	// slack while keeping entry validation a tiny fixed loop.
	sbMaxPages = 4
)

// sbEntry is one instruction inside a superblock.
type sbEntry struct {
	fn     opFn   // ops[inst.Op]
	lin    uint32 // linear address of the instruction's first byte
	ip     uint16 // cs-relative offset of the first byte
	nextIP uint16 // sequential successor (ip+size)
	inst   isa.Inst
}

// superblock is a straight-line run of predecoded instructions plus
// the page-generation evidence that its backing bytes are unchanged.
// n == 0 marks a negative block: the head byte is known not to decode
// (generation-validated like any entry), so entry raises the
// invalid-opcode exception without re-attempting a build.
type superblock struct {
	lin    uint32
	ip     uint16
	n      uint16
	npages uint8
	pages  [sbMaxPages]uint32
	gens   [sbMaxPages]uint64
	ins    []sbEntry

	// succ caches the block most recently entered after this one
	// exhausted — a monomorphic chain hint that lets the turbo loop
	// follow block→block transitions without re-probing the table. It
	// is only ever a hint: sbBuild rebuilds a slot in place, so the
	// pointed-to struct may since head another address, or the same
	// head rebuilt as a negative block (n == 0, no entries) after its
	// bytes stopped decoding. Every use therefore re-checks (lin, ip),
	// n != 0 and span freshness, exactly as sbLookup does, and a stale
	// pointer misses to the full path.
	succ *superblock
}

// SetSuperblocks enables or disables the superblock engine. On by
// default; off leaves the reference interpreter. Behaviour must be
// bit-identical either way — the differential suites and fuzzer hold
// the two engines against each other — so this exists for those tests
// and for A/B benchmarking, not for correctness control.
func (m *Machine) SetSuperblocks(on bool) {
	if on {
		if m.sblocks == nil {
			m.sblocks = new([sbSize]*superblock)
		}
	} else {
		m.sblocks = nil
		m.sbCur = nil
	}
}

// sbTurbo retires consecutive entries of the current block b, one per
// step, starting at step index done and stopping at stop, the quiet
// horizon's end (n is run's budget, for re-reading the horizon).
// Preconditions (established by fastForward, invariant between block
// boundaries): AfterStep nil, no latched pins, not halted, and no
// ticker acts on any of the steps before stop. Each iteration performs
// exactly one Step: Stats.Steps, the per-entry validation, the entry's
// opFn, the NMI-counter decrement, the PCHist count, and the trailing
// AfterStep check; the skeleton's remaining checks are dead under the
// preconditions, and the ticks are settled in bulk afterwards (or by a
// port access).
//
// At a block boundary (the block exhausted), the loop keeps going
// without dropping out: the only instructions with skeleton-visible side
// effects — port I/O ticking a device that latches a pin, reloads a
// ticker or installs a hook, hlt, int — are serialize points and hence
// block-final, so the preconditions are re-checked exactly there: pins,
// halt and the engine switch always, and the horizon when a port access
// has settled the tickers since the lane last read it (laneBase moved).
// Then control chains to the successor block: the block itself for a
// loop back-edge, the cached succ hint, or a table probe. Every chained
// entry revalidates (lin, ip) and span freshness just as sbEnter would;
// only an unbuilt, stale or negative successor drops to run's full
// skeleton, which rebuilds via sbEnter. Returns the number of steps done
// and the last retired step's event (meaningful only if at least one
// step retired).
func (m *Machine) sbTurbo(b *superblock, done, stop, n int) (int, Event) {
	c := &m.CPU
	i := m.sbIdx
	base := m.laneBase
	var ev Event
	for done < stop {
		entered := false
		if i >= len(b.ins) {
			// Block boundary: re-establish the skeleton preconditions
			// that a block-final instruction may have violated, then chain.
			if m.pins != 0 || c.Halted || m.sblocks == nil {
				break
			}
			if m.laneBase != base {
				// A port access settled the tickers, and its device may
				// have reloaded one: re-read the horizon from here.
				base = m.laneBase
				if stop = done + m.horizon(n-done); done >= stop {
					break
				}
			}
			ip := c.IP
			lin := (uint32(c.S[isa.CS])<<4 + uint32(ip)) & mem.AddrMask
			if b.ip == ip && b.lin == lin {
				// Loop back-edge: re-enter in place; the entry-0 check
				// below revalidates span freshness.
			} else if s := b.succ; s != nil && s.ip == ip && s.lin == lin && s.n != 0 && m.sbValidate(s) {
				b, m.sbCur = s, s
				m.sbStamp = *m.busStamp
			} else if s := m.sbLookup(lin, ip); s != nil && m.sbValidate(s) {
				b.succ = s
				b, m.sbCur = s, s
				m.sbStamp = *m.busStamp
			} else {
				break // unbuilt, stale or negative successor: full path
			}
			i = 0
			entered = true
		}
		e := &b.ins[i]
		// Full entry validation: (lin, ip) pins the live configuration
		// to this exact entry, the stamp pins the block's bytes.
		if !(e.ip == c.IP &&
			e.lin == (uint32(c.S[isa.CS])<<4+uint32(c.IP))&mem.AddrMask &&
			(*m.busStamp == m.sbStamp || m.sbRevalidate(b))) {
			if !entered {
				m.Stats.BlockBails++
			}
			m.sbCur = nil
			break
		}
		if entered {
			m.Stats.Blocks++
		}
		// Continuation run. After a validated entry completes with
		// EventInstr, the (lin, ip) compare is provably redundant for
		// the next entry: a non-final entry's only normal exit sets
		// IP = nextIP (the opFn contract), which the builder laid out
		// as the next entry's ip; branches and cs writes are block-
		// final; and under the turbo preconditions nothing else runs
		// between entries. Only the write stamp — self-modifying
		// stores, DMA — still needs re-checking per step.
		for {
			m.Stats.Steps++
			m.Stats.BlockInstrs++
			ev = e.fn(m, &e.inst, e.nextIP)
			i++
			done++
			// ev is never EventNMI here (opFns return EventInstr or
			// an exception), so Step's "except on the delivering tick"
			// guard is vacuously true.
			if m.Opts.NMICounter && c.NMICounter > 0 {
				c.NMICounter--
			}
			if h := m.PCHist; h != nil && ev == EventInstr {
				// The post-step pc of a non-final entry is the next
				// entry's lin, by the same argument that makes the
				// continuation's (lin, ip) compare redundant; only the
				// block-final entry has to read the CPU.
				if i < len(b.ins) {
					h.count(b.ins[i].lin)
				} else {
					h.countPC(c)
				}
			}
			if m.AfterStep != nil {
				// Installed by this very entry (a block-final port
				// device): Step would invoke it on the installing step
				// already.
				m.AfterStep(m, ev)
				m.sbIdx = i
				return done, ev
			}
			if ev != EventInstr {
				// Exception: full-path checks (halt, diverged pc) next step.
				m.sbIdx = i
				return done, ev
			}
			if done >= stop || i >= len(b.ins) {
				break // horizon or boundary: the outer loop handles both
			}
			e = &b.ins[i]
			if *m.busStamp != m.sbStamp && !m.sbRevalidate(b) {
				m.Stats.BlockBails++
				m.sbCur = nil
				m.sbIdx = i
				return done, ev
			}
		}
	}
	m.sbIdx = i
	return done, ev
}

// sbExec is run's instruction slot when the engine is on: the current
// block's next entry if it provably matches the live configuration,
// else a freshly entered (or rebuilt) block at cs:ip, else one
// interpreter instruction. It serves every step the turbo lane cannot:
// steps on which a ticker acts, an AfterStep hook installed (fault
// windows, monitors, recorders), pins latched, the first step after a
// halt or a turbo bail. The full per-entry (lin, ip, write
// stamp) check makes whatever a ticker, device or hook mutated between
// steps visible before the next entry runs.
func (m *Machine) sbExec() Event {
	if b := m.sbCur; b != nil {
		i := m.sbIdx
		if i < len(b.ins) {
			e := &b.ins[i]
			c := &m.CPU
			if e.ip == c.IP &&
				e.lin == (uint32(c.S[isa.CS])<<4+uint32(c.IP))&mem.AddrMask &&
				(*m.busStamp == m.sbStamp || m.sbRevalidate(b)) {
				m.sbIdx = i + 1
				m.Stats.BlockInstrs++
				return e.fn(m, &e.inst, e.nextIP)
			}
			m.Stats.BlockBails++
		}
		m.sbCur = nil
	}
	return m.sbEnter()
}

// sbRevalidate re-checks the block's span pages against their
// build-time generations after the bus write stamp moved, refreshing
// the stamp snapshot on success so later entries take the one-compare
// path again. Writes outside the span (the common case: the guest's
// own data stores) cost exactly this check; writes inside it fail it.
func (m *Machine) sbRevalidate(b *superblock) bool {
	if !m.sbValidate(b) {
		return false
	}
	m.sbStamp = *m.busStamp
	return true
}

// sbValidate compares every span page's current generation with its
// build-time value: true means the block's bytes are provably the
// bytes it was built from.
func (m *Machine) sbValidate(b *superblock) bool {
	gens := m.pageGens
	for i := uint8(0); i < b.npages; i++ {
		if gens[b.pages[i]] != b.gens[i] {
			return false
		}
	}
	return true
}

// sbLookup probes the block table for a built, positive block headed at
// (lin, ip); nil means miss, head mismatch or negative block, all of
// which the caller routes to the full path. Wrap-adjacent live heads
// need no explicit guard: built heads always satisfy the wrap guards,
// so a wrap-adjacent ip can never match a stored one.
func (m *Machine) sbLookup(lin uint32, ip uint16) *superblock {
	b := m.sblocks[(lin^lin>>sbBits)&sbMask]
	if b == nil || b.lin != lin || b.ip != ip || b.n == 0 {
		return nil
	}
	return b
}

// sbEnter looks up (or builds) the superblock headed at cs:ip,
// validates its span, and executes its first entry. Wrap-adjacent
// configurations run one interpreter step (the byte-wise fetch), and
// a negative block raises the invalid-opcode exception, exactly as the
// interpreter's failed decode of the same bytes would.
func (m *Machine) sbEnter() Event {
	c := &m.CPU
	ip := c.IP
	lin := (uint32(c.S[isa.CS])<<4 + uint32(ip)) & mem.AddrMask
	if ip > 0x10000-isa.MaxInstrSize || lin > mem.AddrSpace-isa.MaxInstrSize {
		return m.execute()
	}
	idx := (lin ^ lin>>sbBits) & sbMask
	b := m.sblocks[idx]
	if b == nil || b.lin != lin || b.ip != ip || !m.sbValidate(b) {
		b = m.sbBuild(b, lin, ip)
		m.sblocks[idx] = b
	}
	if b.n == 0 {
		return m.raiseException(VecInvalidOpcode)
	}
	m.sbCur = b
	m.sbIdx = 1
	m.sbStamp = *m.busStamp
	m.Stats.Blocks++
	m.Stats.BlockInstrs++
	e := &b.ins[0]
	return e.fn(m, &e.inst, e.nextIP)
}

// sbBuild (re)builds the superblock headed at lin (== linear(cs, ip)),
// reusing the evicted block's entry storage when there is one. The
// caller has already established that the head passes the wrap guards.
//
//ssos:alloc-ok cold build path: allocates the block and its entry slice once per (re)build, amortized across every later entry
func (m *Machine) sbBuild(b *superblock, lin uint32, ip uint16) *superblock {
	if b == nil {
		b = &superblock{ins: make([]sbEntry, 0, sbMaxLen)}
	} else {
		b.ins = b.ins[:0]
	}
	b.lin, b.ip, b.npages, b.succ = lin, ip, 0, nil
	for len(b.ins) < sbMaxLen {
		if ip > 0x10000-isa.MaxInstrSize || lin > mem.AddrSpace-isa.MaxInstrSize {
			break // successor needs the byte-wise wrap path
		}
		in, size, ok := isa.Decode(m.Bus.View(lin, isa.MaxInstrSize))
		if !ok {
			if len(b.ins) == 0 {
				// Negative block: the head does not decode. Span exactly
				// the bytes the verdict depends on (the isa.InstLen
				// cacheability contract).
				span := isa.InstLen(m.Bus.LoadByte(lin))
				if span == 0 {
					span = 1
				}
				b.addSpan(lin, uint32(span))
			}
			break
		}
		if !b.addSpan(lin, uint32(size)) {
			break // page budget exhausted; end the block before this instruction
		}
		b.ins = append(b.ins, sbEntry{
			fn:     ops[in.Op],
			lin:    lin,
			ip:     ip,
			nextIP: ip + uint16(size),
			inst:   in,
		})
		if sbEndsBlock(&in) {
			break
		}
		ip += uint16(size)
		lin += uint32(size)
	}
	b.n = uint16(len(b.ins))
	gens := m.pageGens
	for i := uint8(0); i < b.npages; i++ {
		b.gens[i] = gens[b.pages[i]]
	}
	return b
}

// addSpan records the pages of [lin, lin+size) in the block's span,
// reporting false when the page budget would overflow.
func (b *superblock) addSpan(lin, size uint32) bool {
	p0 := lin >> mem.PageShift
	p1 := (lin + size - 1) >> mem.PageShift
	for p := p0; p <= p1; p++ {
		if !b.addPage(p) {
			return false
		}
	}
	return true
}

func (b *superblock) addPage(p uint32) bool {
	for i := uint8(0); i < b.npages; i++ {
		if b.pages[i] == p {
			return true
		}
	}
	if int(b.npages) == len(b.pages) {
		return false
	}
	b.pages[b.npages] = p
	b.npages++
	return true
}

// sbEndsBlock reports whether the decoded instruction must be the last
// entry of its block: any isa-level serialize point, plus any instance
// that writes cs (retargeting the code stream), which is an operand
// property the isa table cannot classify.
func sbEndsBlock(in *isa.Inst) bool {
	if in.Op.Serializing() {
		return true
	}
	switch in.Op {
	case isa.OpMovSR, isa.OpMovSM, isa.OpPopS:
		return isa.SReg(in.R1) == isa.CS
	}
	return false
}
