package trace

import (
	"fmt"
	"strings"

	"ssos/internal/machine"
)

// Range is a named linear-address range used for program-counter
// accounting (e.g. one per scheduled process).
type Range = machine.PCRange

// PCSampler counts, per instruction executed, which address range the
// program counter is in after it. It implements the paper's fairness criterion
// observably: "for every process there are infinite number of
// configurations in which the program counter contains an address of
// one of the process' instructions".
//
// The counts are a machine.PCHistogram that the step engine fills once
// the sampler is attached: every instruction step charges its
// post-step cs:ip, and sampling costs no AfterStep hook, so sampled
// runs keep the superblock turbo lane.
type PCSampler struct {
	machine.PCHistogram
}

// NewPCSampler builds a sampler over the given ranges.
func NewPCSampler(ranges ...Range) *PCSampler {
	return &PCSampler{*machine.NewPCHistogram(ranges...)}
}

// Attach makes m's step engine fill the sampler's counts, replacing
// any histogram attached before. Set m.PCHist to nil to detach.
func (s *PCSampler) Attach(m *machine.Machine) { m.PCHist = &s.PCHistogram }

// Share returns the fraction of instructions executed inside range i.
func (s *PCSampler) Share(i int) float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Counts[i]) / float64(s.Total)
}

// MinShare returns the smallest per-range share (the starvation
// indicator: fairness requires it to be bounded away from zero).
func (s *PCSampler) MinShare() float64 {
	min := 1.0
	for i := range s.Ranges {
		if sh := s.Share(i); sh < min {
			min = sh
		}
	}
	return min
}

func (s *PCSampler) String() string {
	var b strings.Builder
	for i, r := range s.Ranges {
		fmt.Fprintf(&b, "%s=%.3f ", r.Name, s.Share(i))
	}
	fmt.Fprintf(&b, "other=%.3f", float64(s.Other)/float64(max64(s.Total, 1)))
	return b.String()
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// EventCounter tallies step events, usable as an AfterStep hook.
type EventCounter struct {
	Counts [6]uint64
}

// Observe accounts one event.
func (c *EventCounter) Observe(_ *machine.Machine, ev machine.Event) {
	if int(ev) < len(c.Counts) {
		c.Counts[ev]++
	}
}
