package machine

import (
	"ssos/internal/isa"
	"ssos/internal/mem"
)

// PCRange is a named linear-address range [Start, End) used for
// program-counter accounting (e.g. one per scheduled process).
type PCRange struct {
	Name  string
	Start uint32 // inclusive
	End   uint32 // exclusive
}

// Contains reports whether addr falls in the range.
func (r PCRange) Contains(addr uint32) bool { return addr >= r.Start && addr < r.End }

// PCHistogram counts where the program counter is after every step
// that executes an instruction (EventInstr): the post-step cs:ip
// linear address is charged to the first range containing it, or to
// Other. Attached through Machine.PCHist, it is filled by the step
// engine itself, on the full skeleton and in the turbo lane alike, so
// sampling keeps every step eligible for the lane. Interrupt
// deliveries, exceptions, resets and halted ticks count nothing.
type PCHistogram struct {
	Ranges []PCRange
	Counts []uint64 // per range, parallel to Ranges
	Other  uint64   // instructions outside every range
	Total  uint64
}

// NewPCHistogram builds an empty histogram over the given ranges.
func NewPCHistogram(ranges ...PCRange) *PCHistogram {
	return &PCHistogram{Ranges: ranges, Counts: make([]uint64, len(ranges))}
}

// Reset clears all counts.
func (h *PCHistogram) Reset() {
	clear(h.Counts)
	h.Other = 0
	h.Total = 0
}

// count charges one executed instruction whose post-step program
// counter is at linear address lin.
func (h *PCHistogram) count(lin uint32) {
	h.Total++
	for i, r := range h.Ranges {
		if r.Contains(lin) {
			h.Counts[i]++
			return
		}
	}
	h.Other++
}

// countPC charges the live program counter: the post-step address of
// an instruction step retired through the skeleton or as a block's
// final entry.
func (h *PCHistogram) countPC(c *CPU) {
	h.count((uint32(c.S[isa.CS])<<4 + uint32(c.IP)) & mem.AddrMask)
}
