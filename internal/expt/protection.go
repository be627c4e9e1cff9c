package expt

import (
	"fmt"

	"ssos/internal/core"
	"ssos/internal/guest"
	"ssos/internal/isa"
	"ssos/internal/machine"
	"ssos/internal/trace"
)

// E11Protection ablates the memory-protection extension (an addition
// beyond the paper — its real-mode setting has none): the scheduler
// system runs while a fault process periodically corrupts the RUNNING
// process's ds to point at another process's data area, the exact
// cross-process interference the paper leaves to programmer discipline
// ("the data of each process resides in a distinct separate ram area").
//
// Without protection the stray stores land and the victims' counters
// are scribbled (observable as heartbeat violations on *other*
// processes); with protection the store faults, costing the offender
// its quantum but leaving the victims untouched.
func E11Protection(o Options) *Table {
	t := &Table{
		ID:    "E11",
		Title: "Memory-protection extension: confining cross-process interference",
		Claim: "EXTENSION (beyond the paper): hardware store windows turn the paper's " +
			"per-process data-area discipline from an assumption into a guarantee",
		Columns: []string{"variant", "trials", "victim violations (total)", "exceptions", "min share"},
	}
	trials := o.trials(8)
	horizon := o.horizon(600000)
	const corruptEvery = 7001 // prime, to wander across quanta phases

	type e11result struct {
		viol  int
		exc   uint64
		share float64
	}
	for _, variant := range []struct {
		name    string
		protect bool
	}{
		{"paper scheduler (no protection)", false},
		{"with store windows", true},
	} {
		totalViol := 0
		var totalExc uint64
		minShare := 1.0
		forEachTrial(trials, func(i int) interface{} {
			s := core.MustNew(core.Config{
				Approach:      core.ApproachScheduler,
				ProtectMemory: variant.protect,
				ValidateDS:    true, // both variants pin record ds (isolate the window effect)
			})
			s.Run(60000 + i*317)
			sampler := trace.NewPCSampler(core.ProcRanges()...)
			sampler.Attach(s.M)
			// The fault strikes between steps corruptEvery and
			// corruptEvery+1 from here, and every corruptEvery after.
			s.M.AddTicker(&strayDS{left: corruptEvery + 1, every: corruptEvery})

			excBefore := s.M.Stats.Exceptions
			s.Run(horizon)
			out := e11result{exc: s.M.Stats.Exceptions - excBefore, share: sampler.MinShare()}
			for p := 0; p < guest.NumProcs; p++ {
				w := s.ProcBeats[p].Writes()
				out.viol += len(s.ProcSpec(p).Violations(w, s.Steps()))
			}
			return out
		}, func(_ int, r interface{}) {
			er := r.(e11result)
			totalViol += er.viol
			totalExc += er.exc
			if er.share < minShare {
				minShare = er.share
			}
		})
		t.AddRow(variant.name, fmt.Sprint(trials), fmt.Sprint(totalViol),
			fmt.Sprint(totalExc), fmt.Sprintf("%.2f", minShare))
	}
	t.Notes = append(t.Notes,
		"fault: every 7001 steps the running process's ds is pointed at another "+
			"process's data; violations are counted across ALL process heartbeat streams. "+
			"Protection trades victim corruption for general-protection exceptions, which "+
			"the scheduler's exception path absorbs.")
	return t
}

// strayDS is E11's fault process, a clock-driven device: on every
// every-th tick it points the running code's ds at the next victim
// process's data area (stray aliasing). left counts the ticks up to and
// including the acting one, so the steps before it are pure countdowns
// and run in the turbo lane.
type strayDS struct {
	left, every int
	victim      int
}

func (d *strayDS) Tick(m *machine.Machine) {
	if d.left--; d.left > 0 {
		return
	}
	d.left = d.every
	d.victim = (d.victim + 1) % guest.RingMembers
	m.CPU.S[isa.DS] = guest.ProcDataSeg(d.victim)
}

func (d *strayDS) Quiet() int { return d.left - 1 }

func (d *strayDS) Skip(k int) { d.left -= k }
