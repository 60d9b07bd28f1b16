package core

import (
	"fmt"
	"io"
	"time"

	"aimes/internal/sim"
	"aimes/internal/trace"
)

// Report is the instrumented outcome of one execution: TTC and its
// overlap-aware components, exactly as in the paper's Figure 3. Because the
// components overlap (staging during queue wait, executions in parallel),
// TTC < Tw + Tx + Ts.
type Report struct {
	Strategy Strategy

	// TTC is the time-to-completion: enactment start to last unit terminal.
	TTC time.Duration
	// Tw is the setup time: enactment start until the first pilot became
	// active (queue wait dominated). If no pilot ever activated, Tw = TTC.
	Tw time.Duration
	// Tx is the union of all unit execution spans, including the agent
	// dispatch stagger (Trp appears here, steepening Tx at high task
	// counts).
	Tx time.Duration
	// Ts is the union of all staging spans (input and output).
	Ts time.Duration

	UnitsDone     int
	UnitsFailed   int
	UnitsCanceled int
	TotalRestarts int

	// PilotWaits maps each pilot ID to its queue wait; pilots that never
	// activated are absent.
	PilotWaits map[string]time.Duration
	// UnitsByResource counts completed units per resource — how the backfill
	// scheduler actually spread the workload.
	UnitsByResource map[string]int
	// PilotsActivated counts pilots that became active before completion.
	PilotsActivated int
	// ExtraPilots counts pilots added by runtime adaptation
	// (Manager.ExecuteAdaptive).
	ExtraPilots int

	// Throughput is completed units per hour of TTC.
	Throughput float64

	// CoreHours is the total allocation consumed: Σ over activated pilots
	// of cores × active duration. The paper's §IV-B discusses this
	// space/time-efficiency trade-off: early binding on a right-sized pilot
	// wastes no walltime, while late binding holds extra pilots.
	CoreHours float64
	// BusyCoreHours is the portion spent executing units.
	BusyCoreHours float64
	// Efficiency is BusyCoreHours / CoreHours (0 when nothing activated).
	Efficiency float64
}

// buildReport derives the report from the execution's pilots and units.
func buildReport(e *Execution) *Report {
	r := &Report{
		Strategy:        e.strategy,
		TTC:             e.ended.Sub(e.started),
		ExtraPilots:     e.extraPilots,
		PilotWaits:      make(map[string]time.Duration),
		UnitsByResource: make(map[string]int),
	}

	// Pilot activation: Tw = start → first ACTIVE.
	firstActive := sim.Forever
	for _, p := range e.pm.Pilots() {
		if p.ActiveAt() > 0 {
			r.PilotsActivated++
			r.PilotWaits[p.ID()] = p.Wait()
			if p.ActiveAt() < firstActive {
				firstActive = p.ActiveAt()
			}
		}
	}
	if firstActive == sim.Forever {
		r.Tw = r.TTC
	} else {
		r.Tw = firstActive.Sub(e.started)
	}

	// Tx and Ts: unions of the spans the unit manager closed at each unit
	// transition.
	execSpans, stageSpans := e.um.Spans()
	r.Tx = trace.UnionDuration(execSpans).Duration()
	r.Ts = trace.UnionDuration(stageSpans).Duration()

	for _, u := range e.um.Units() {
		switch u.State().String() {
		case "DONE":
			r.UnitsDone++
			r.BusyCoreHours += u.Description().Duration.Hours() * float64(u.Description().Cores)
			if p := u.Pilot(); p != nil {
				r.UnitsByResource[p.Resource()]++
			}
		case "FAILED":
			r.UnitsFailed++
		case "CANCELED":
			r.UnitsCanceled++
		}
		r.TotalRestarts += u.Attempts()
	}
	for _, p := range e.pm.Pilots() {
		if p.ActiveAt() == 0 {
			continue
		}
		end := p.EndedAt()
		if end == 0 {
			end = e.ended
		}
		r.CoreHours += end.Sub(p.ActiveAt()).Hours() * float64(p.Description().Cores)
	}
	if r.CoreHours > 0 {
		r.Efficiency = r.BusyCoreHours / r.CoreHours
	}
	if r.TTC > 0 {
		r.Throughput = float64(r.UnitsDone) / r.TTC.Hours()
	}
	return r
}

// WriteSummary prints a human-readable report.
func (r *Report) WriteSummary(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"strategy: %s\nTTC  %9.1fs\n Tw  %9.1fs (first pilot active)\n Tx  %9.1fs (execution union)\n Ts  %9.1fs (staging union)\nunits: %d done, %d failed, %d canceled, %d restarts\npilots activated: %d/%d\nthroughput: %.1f units/hour\nallocation: %.1f core-hours, %.0f%% busy\n",
		r.Strategy, r.TTC.Seconds(), r.Tw.Seconds(), r.Tx.Seconds(), r.Ts.Seconds(),
		r.UnitsDone, r.UnitsFailed, r.UnitsCanceled, r.TotalRestarts,
		r.PilotsActivated, r.Strategy.Pilots, r.Throughput, r.CoreHours, 100*r.Efficiency)
	return err
}
