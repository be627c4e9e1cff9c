package dev

import (
	"slices"
	"testing"
	"testing/quick"

	"ssos/internal/isa"
	"ssos/internal/machine"
	"ssos/internal/mem"
)

func idleMachine() *machine.Machine {
	bus := mem.NewBus()
	// hlt at the reset vector keeps the CPU idle while devices tick.
	bus.Poke(0x1000, byte(isa.OpHlt))
	return machine.New(bus, machine.Options{
		ResetVector:        machine.SegOff{Seg: 0x0100, Off: 0},
		NMICounter:         true,
		HardwiredNMIVector: true,
		NMIVector:          machine.SegOff{Seg: 0x0100, Off: 0},
	})
}

func TestWatchdogFiresEveryPeriod(t *testing.T) {
	m := idleMachine()
	w := NewWatchdog(10, TargetNMI)
	m.AddTicker(w)
	m.Run(100)
	if w.Fires != 10 {
		t.Fatalf("fires = %d, want 10", w.Fires)
	}
	if m.Stats.NMIs == 0 {
		t.Fatal("watchdog NMIs were not delivered")
	}
}

func TestWatchdogResetTarget(t *testing.T) {
	m := idleMachine()
	w := NewWatchdog(5, TargetReset)
	m.AddTicker(w)
	m.Run(20)
	if m.Stats.Resets != 4 {
		t.Fatalf("resets = %d, want 4", m.Stats.Resets)
	}
}

func TestWatchdogSelfStabilizes(t *testing.T) {
	// Property (paper Section 2): starting from ANY counter state a
	// signal is triggered within the desired interval, and never two
	// signals closer than the interval thereafter.
	f := func(counter uint32, periodSeed uint16) bool {
		period := uint32(periodSeed%64) + 2
		m := idleMachine()
		w := NewWatchdog(period, TargetNMI)
		w.Counter = counter // corruption
		m.AddTicker(w)
		var fireSteps []uint64
		for i := 0; i < int(period)*3; i++ {
			before := w.Fires
			m.Step()
			if w.Fires > before {
				fireSteps = append(fireSteps, m.Stats.Steps)
			}
		}
		if len(fireSteps) == 0 || fireSteps[0] > uint64(period) {
			return false // must fire within one period from any state
		}
		for i := 1; i < len(fireSteps); i++ {
			if fireSteps[i]-fireSteps[i-1] != uint64(period) {
				return false // no premature signals thereafter
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWatchdogZeroPeriodClamped(t *testing.T) {
	m := idleMachine()
	w := &Watchdog{Period: 0}
	m.AddTicker(w)
	m.Run(3) // must not divide by zero or stall
	if w.Fires == 0 {
		t.Fatal("degenerate watchdog never fired")
	}
}

func TestConsoleRecordsStampedWrites(t *testing.T) {
	var step uint64
	c := NewConsole(func() uint64 { return step }, 0)
	step = 5
	c.Out(0x10, 0xAA)
	step = 9
	c.Out(0x10, 0xBB)
	w := c.Writes()
	if len(w) != 2 || w[0] != (PortWrite{5, 0xAA}) || w[1] != (PortWrite{9, 0xBB}) {
		t.Fatalf("writes: %v", w)
	}
	if c.In(0x10) != 0 {
		t.Fatal("console reads should be 0")
	}
	last, ok := c.Last()
	if !ok || last.Value != 0xBB {
		t.Fatalf("last: %v %v", last, ok)
	}
}

func TestConsoleRingLimit(t *testing.T) {
	c := NewConsole(nil, 3)
	for i := 0; i < 10; i++ {
		c.Out(0, uint16(i))
	}
	w := c.Writes()
	if len(w) != 3 || w[0].Value != 7 || w[2].Value != 9 {
		t.Fatalf("ring: %v", w)
	}
	if c.Total() != 10 || c.Dropped() != 7 {
		t.Fatalf("total=%d dropped=%d", c.Total(), c.Dropped())
	}
	c.Reset()
	if _, ok := c.Last(); ok || c.Total() != 0 {
		t.Fatal("reset did not clear")
	}
}

// TestConsoleTrimBefore: trimming keeps the last write stamped before
// the cut and everything after it, in both the chunked log (across
// chunk boundaries) and the bounded ring, and the console keeps
// recording normally afterwards.
func TestConsoleTrimBefore(t *testing.T) {
	const n = 3*consoleChunk + 5
	for _, limit := range []int{0, 100} {
		for _, cut := range []uint64{0, 1, 2, 3, 2 * consoleChunk, 2*consoleChunk + 1, 2 * n, 2*n + 9} {
			var step uint64
			c := NewConsole(func() uint64 { return step }, limit)
			for i := 0; i < n; i++ {
				step = uint64(2 * i)
				c.Out(0, uint16(i))
			}
			full := c.Writes()
			k := 0
			for k < len(full) && full[k].Step < cut {
				k++
			}
			want := full[max(k-1, 0):]
			c.TrimBefore(cut)
			if got := c.Writes(); !slices.Equal(got, want) {
				t.Fatalf("limit=%d cut=%d: kept %d writes from %v, want %d from %v",
					limit, cut, len(got), got[:1], len(want), want[:1])
			}
			if c.Total() != n {
				t.Fatalf("limit=%d cut=%d: total %d, want %d", limit, cut, c.Total(), n)
			}
			step = 2 * n
			c.Out(0, 0xEE)
			if last, ok := c.Last(); !ok || last != (PortWrite{2 * n, 0xEE}) {
				t.Fatalf("limit=%d cut=%d: last after trim %v %v", limit, cut, last, ok)
			}
			wantLen := len(want) + 1
			if limit > 0 {
				wantLen = min(wantLen, limit)
			}
			if got := c.Writes(); len(got) != wantLen {
				t.Fatalf("limit=%d cut=%d: %d writes after one more, want %d", limit, cut, len(got), wantLen)
			}
		}
	}
}

func TestConsoleOnMachine(t *testing.T) {
	bus := mem.NewBus()
	code := []byte{
		byte(isa.OpMovRI), 0, 0x42, 0x00, // mov ax, 0x42
		byte(isa.OpOutI), 0x10, // out 0x10, ax
		byte(isa.OpHlt),
	}
	for i, b := range code {
		bus.Poke(0x1000+uint32(i), b)
	}
	m := machine.New(bus, machine.Options{ResetVector: machine.SegOff{Seg: 0x0100, Off: 0}})
	c := NewConsole(func() uint64 { return m.Stats.Steps }, 0)
	m.MapPort(0x10, c)
	m.Run(3)
	w := c.Writes()
	if len(w) != 1 || w[0].Value != 0x42 || w[0].Step != 2 {
		t.Fatalf("writes: %v", w)
	}
}

func TestTimerRaisesIRQ(t *testing.T) {
	bus := mem.NewBus()
	// Main loop: sti; jmp 0 — interruptible forever. Handler: iret.
	code := []byte{
		byte(isa.OpSti),
		byte(isa.OpJmp), 0x00, 0x00,
	}
	for i, b := range code {
		bus.Poke(0x1000+uint32(i), b)
	}
	handler := []byte{byte(isa.OpIret)}
	for i, b := range handler {
		bus.Poke(0x1100+uint32(i), b)
	}
	m := machine.New(bus, machine.Options{
		ResetVector: machine.SegOff{Seg: 0x0100, Off: 0},
		FixedIDTR:   true,
	})
	m.SetIDTEntry(machine.VecTimer, machine.SegOff{Seg: 0x0100, Off: 0x100})
	tm := NewTimer(7, machine.VecTimer)
	m.AddTicker(tm)
	m.Run(100)
	if tm.Fires < 10 {
		t.Fatalf("timer fires = %d", tm.Fires)
	}
	if m.Stats.IRQs == 0 {
		t.Fatal("no IRQs delivered")
	}
}

func TestTimerSelfStabilizes(t *testing.T) {
	f := func(counter uint32) bool {
		tm := NewTimer(16, machine.VecTimer)
		tm.Counter = counter
		m := idleMachine()
		m.AddTicker(tm)
		for i := 0; i < 16; i++ {
			m.Step()
		}
		return tm.Fires >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCheckpointerSnapshotRestore(t *testing.T) {
	bus := mem.NewBus()
	bus.Poke(0x1000, byte(isa.OpHlt))
	m := machine.New(bus, machine.Options{ResetVector: machine.SegOff{Seg: 0x0100, Off: 0}})
	r := mem.Region{Name: "data", Start: 0x5000, Size: 16}
	c := NewCheckpointer(bus, r, 10)
	m.AddTicker(c)

	// Before any snapshot, restore is a no-op and In reports 0.
	if c.In(0) != 0 {
		t.Fatal("has snapshot before first period")
	}
	bus.Poke(0x5000, 0xAA)
	c.Out(0, CheckpointCmdRestore)
	if bus.Peek(0x5000) != 0xAA {
		t.Fatal("restore without snapshot modified memory")
	}

	m.Run(10) // first periodic snapshot captures 0xAA
	if c.Snapshots == 0 || c.In(0) != 1 {
		t.Fatalf("snapshots=%d", c.Snapshots)
	}
	bus.Poke(0x5000, 0xBB) // corruption after snapshot
	c.Out(0, CheckpointCmdRestore)
	if bus.Peek(0x5000) != 0xAA {
		t.Fatalf("restore: %#x", bus.Peek(0x5000))
	}
	if c.Restores != 1 {
		t.Fatalf("restores=%d", c.Restores)
	}

	// Forced snapshot captures current (possibly corrupt) state — the
	// non-stabilization hazard.
	bus.Poke(0x5000, 0xCC)
	c.Out(0, CheckpointCmdSnapshot)
	bus.Poke(0x5000, 0x11)
	c.Out(0, CheckpointCmdRestore)
	if bus.Peek(0x5000) != 0xCC {
		t.Fatalf("forced snapshot not honoured: %#x", bus.Peek(0x5000))
	}
}

func TestCheckpointerCounterClamped(t *testing.T) {
	bus := mem.NewBus()
	bus.Poke(0x1000, byte(isa.OpHlt))
	m := machine.New(bus, machine.Options{ResetVector: machine.SegOff{Seg: 0x0100, Off: 0}})
	c := NewCheckpointer(bus, mem.Region{Start: 0x5000, Size: 4}, 8)
	c.Counter = 0xFFFFFFFF // corrupted
	m.AddTicker(c)
	m.Run(9)
	if c.Snapshots == 0 {
		t.Fatal("clamped counter never reached a snapshot")
	}
}

func TestSilenceWatchdogFiresOnlyWhenSilent(t *testing.T) {
	m := idleMachine()
	c := NewConsole(nil, 0)
	w := NewSilenceWatchdog(c, 10)
	m.AddTicker(w)
	// Keep the port busy: no fires.
	for i := 0; i < 50; i++ {
		w.Out(0x10, uint16(i))
		m.Step()
	}
	if w.Fires != 0 {
		t.Fatalf("fired despite activity: %d", w.Fires)
	}
	if c.Total() != 50 {
		t.Fatalf("inner console writes: %d", c.Total())
	}
	// Go silent: fires within the limit, then keeps firing every limit.
	m.Run(10)
	if w.Fires != 1 {
		t.Fatalf("fires after silence = %d", w.Fires)
	}
	m.Run(10)
	if w.Fires != 2 {
		t.Fatalf("fires = %d", w.Fires)
	}
}

func TestSilenceWatchdogSelfStabilizes(t *testing.T) {
	f := func(counter uint32) bool {
		m := idleMachine()
		w := NewSilenceWatchdog(nil, 16)
		w.Counter = counter
		m.AddTicker(w)
		m.Run(16)
		return w.Fires >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	// Degenerate limit clamps.
	w := NewSilenceWatchdog(nil, 0)
	if w.SilenceLimit != 1 {
		t.Fatal("zero limit not clamped")
	}
	if w.In(0) != 0 {
		t.Fatal("nil inner In")
	}
	w.Out(0, 1) // nil inner must not panic
}

// tickerReg is a clocked device's register and its count of actions
// (signals raised or snapshots taken).
type tickerReg struct {
	period, counter uint32
	acts            uint64
}

// tickerCase builds one of the four clocked devices at a given
// (period, counter), with a view of its register.
type tickerCase struct {
	name string
	make func(period, counter uint32) (machine.Ticker, func() tickerReg)
}

func tickerCases(bus *mem.Bus) []tickerCase {
	return []tickerCase{
		{"watchdog", func(p, c uint32) (machine.Ticker, func() tickerReg) {
			w := &Watchdog{Period: p, Counter: c, Target: TargetNMI}
			return w, func() tickerReg { return tickerReg{w.Period, w.Counter, w.Fires} }
		}},
		{"timer", func(p, c uint32) (machine.Ticker, func() tickerReg) {
			t := &Timer{Period: p, Counter: c, Vec: machine.VecTimer}
			return t, func() tickerReg { return tickerReg{t.Period, t.Counter, t.Fires} }
		}},
		{"silence", func(p, c uint32) (machine.Ticker, func() tickerReg) {
			w := &SilenceWatchdog{SilenceLimit: p, Counter: c}
			return w, func() tickerReg { return tickerReg{w.SilenceLimit, w.Counter, w.Fires} }
		}},
		{"checkpoint", func(p, c uint32) (machine.Ticker, func() tickerReg) {
			k := &Checkpointer{Region: mem.Region{Start: 0x5000, Size: 4}, Period: p, Counter: c, bus: bus}
			return k, func() tickerReg { return tickerReg{k.Period, k.Counter, k.Snapshots} }
		}},
	}
}

// TestTickerSkipEqualsTicks pins the quiet-horizon contract the step
// loop's bulk paths rely on, for all four clocked devices from any
// register state — period 0, counter 0, counter at and past the
// period: Quiet never exceeds period-1; Skip(k) leaves the device
// exactly as k Ticks do for every k in 0..Quiet(), and those Ticks
// raise nothing; and the (Quiet()+1)-th Tick acts.
func TestTickerSkipEqualsTicks(t *testing.T) {
	bus := mem.NewBus()
	periods := []uint32{0, 1, 2, 3, 7, 16, 97}
	counters := func(p uint32) []uint32 {
		cs := []uint32{0, 1, p / 2, p, p + 1, p + 40, 0xFFFFFFFF}
		if p > 0 {
			cs = append(cs, p-1, p-2)
		}
		return cs
	}
	for _, tc := range tickerCases(bus) {
		for _, p := range periods {
			for _, c := range counters(p) {
				ticked, tickedReg := tc.make(p, c)
				q := ticked.Quiet()
				if q < 0 || (p == 0 && q != 0) || (p > 0 && q > int(p)-1) {
					t.Fatalf("%s(%d,%d): Quiet() = %d out of range", tc.name, p, c, q)
				}
				m := idleMachine()
				for k := 0; k <= q; k++ {
					skipped, skippedReg := tc.make(p, c)
					skipped.Skip(k)
					if got, want := skippedReg(), tickedReg(); got != want {
						t.Fatalf("%s(%d,%d): Skip(%d) = %+v, %d Ticks = %+v", tc.name, p, c, k, got, k, want)
					}
					if k < q {
						ticked.Tick(m)
					}
				}
				if m.NMIPending() || tickedReg().acts != 0 {
					t.Fatalf("%s(%d,%d): a quiet tick acted", tc.name, p, c)
				}
				ticked.Tick(m)
				if tickedReg().acts != 1 {
					t.Fatalf("%s(%d,%d): tick %d after Quiet() = %d did not act", tc.name, p, c, q+1, q)
				}
				if (tc.name == "watchdog" || tc.name == "silence") && !m.NMIPending() {
					t.Fatalf("%s(%d,%d): acting tick raised no NMI", tc.name, p, c)
				}
			}
		}
	}
}

// TestTickerQuietLargeRegisters covers registers too long to tick
// through: Quiet stays within period-1 and fits int, and after
// Skip(Quiet()) the very next Tick acts.
func TestTickerQuietLargeRegisters(t *testing.T) {
	bus := mem.NewBus()
	for _, tc := range tickerCases(bus) {
		for _, p := range []uint32{1 << 20, 0x80000000, 0xFFFFFFFF} {
			for _, c := range []uint32{0, 12345, p - 1, p, 0xFFFFFFFF} {
				d, reg := tc.make(p, c)
				q := d.Quiet()
				if q < 0 || uint64(q) > uint64(p)-1 {
					t.Fatalf("%s(%d,%d): Quiet() = %d", tc.name, p, c, q)
				}
				m := idleMachine()
				d.Skip(q)
				if reg().acts != 0 {
					t.Fatalf("%s(%d,%d): Skip acted", tc.name, p, c)
				}
				if q < int(min(c, p-1)) {
					continue // capped horizon: the counter is still above zero
				}
				d.Tick(m)
				if reg().acts != 1 {
					t.Fatalf("%s(%d,%d): tick after Skip(Quiet()) did not act", tc.name, p, c)
				}
			}
		}
	}
}
