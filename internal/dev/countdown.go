package dev

import "math"

// The four clocked devices (Watchdog, Timer, SilenceWatchdog,
// Checkpointer) share one register discipline: a countdown clamped to
// its maximal value period-1 on every tick, acting on the tick that
// finds it at zero and reloading. The helpers below are that discipline
// once, plus its quiet-horizon half (machine.Ticker's Quiet and Skip):
// the ticks before the acting one only decrement the counter, so k of
// them at once are a clamp and a subtraction.

// countdown applies one tick to the register and reports whether the
// tick acts (the counter was zero and is reloaded). The physical
// register cannot hold a period of zero or a count past its maximal
// value; a corrupted simulation state converges through these clamps.
func countdown(period, counter *uint32) bool {
	clampCountdown(period, counter)
	if *counter == 0 {
		*counter = *period - 1
		return true
	}
	*counter--
	return false
}

// quietTicks is how many upcoming ticks of the register are pure
// countdowns: the clamped counter (the acting tick is the one after
// them). Capped at math.MaxInt32 so the count fits int everywhere.
func quietTicks(period, counter uint32) int {
	if period == 0 {
		return 0 // the next tick clamps the period to 1 and acts
	}
	return int(min(counter, period-1, math.MaxInt32))
}

// skipTicks applies k ≤ quietTicks pure countdown ticks at once: the
// same clamps one tick applies, then k decrements none of which reaches
// the acting zero. k == 0 is zero ticks and leaves the register as is,
// clamps included.
func skipTicks(period, counter *uint32, k int) {
	if k <= 0 {
		return
	}
	clampCountdown(period, counter)
	*counter -= uint32(k)
}

func clampCountdown(period, counter *uint32) {
	if *period == 0 {
		*period = 1
	}
	if *counter >= *period {
		*counter = *period - 1
	}
}
