package dev

import "ssos/internal/machine"

// Timer raises a maskable interrupt with a fixed IDT vector every
// Period ticks. Like the watchdog it is self-stabilizing: a corrupted
// counter is clamped, so the next interrupt arrives within one period.
type Timer struct {
	Period  uint32
	Counter uint32
	Vec     uint8
	Fires   uint64
}

// NewTimer returns a timer interrupting through vector vec every period
// ticks.
func NewTimer(period uint32, vec uint8) *Timer {
	if period == 0 {
		period = 1
	}
	return &Timer{Period: period, Counter: period - 1, Vec: vec}
}

// Tick advances the countdown, raising the IRQ at zero.
func (t *Timer) Tick(m *machine.Machine) {
	if countdown(&t.Period, &t.Counter) {
		t.Fires++
		m.RaiseIRQ(t.Vec)
	}
}

// Quiet reports how many upcoming ticks only count down.
func (t *Timer) Quiet() int { return quietTicks(t.Period, t.Counter) }

// Skip applies k ≤ Quiet() ticks at once, exactly as k calls of Tick.
func (t *Timer) Skip(k int) { skipTicks(&t.Period, &t.Counter, k) }
