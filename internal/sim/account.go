package sim

import (
	"time"

	"risa/internal/metrics"
	"risa/internal/network"
	"risa/internal/power"
	"risa/internal/sched"
	"risa/internal/units"
	"risa/internal/workload"
)

// accounting is the paper's physics over one run, beside the outcome
// counters the loop keeps anyway: the optical power accountant and the
// Equation 1 energy, the CPU–RAM latency sum, the inter-rack and
// inter-pod counts, and the time-weighted utilization, network and power
// signals from their reading at t = 0 on. The finite setting (Run)
// carries one; stream runs carry none.
type accounting struct {
	model *power.Model
	meter *power.Accountant

	interRack, interPod int
	latencySum          time.Duration
	eq1EnergyJ          float64

	utilW                  [units.NumResources]metrics.TimeWeighted
	intraW, interW, powerW metrics.TimeWeighted
}

func newAccounting(m *power.Model) *accounting {
	return &accounting{model: m, meter: power.NewAccountant(m)}
}

// advance integrates the power drawn over dt time units.
func (ac *accounting) advance(dt int64) {
	ac.meter.AdvanceSeconds(float64(dt) * SecondsPerTimeUnit)
}

// placed counts a placement's span and latency and attaches its circuits.
func (ac *accounting) placed(a *sched.Assignment) {
	if a.InterRack() {
		ac.interRack++
	}
	if a.InterPod() {
		ac.interPod++
	}
	ac.latencySum += a.CPURAMLatency()
	ac.attach(a)
}

// attach registers a's circuits with the accountant.
func (ac *accounting) attach(a *sched.Assignment) {
	for _, fl := range [...]*network.Flow{a.CPURAMFlow, a.RAMSTOFlow} {
		if fl != nil {
			ac.meter.Add(fl)
		}
	}
}

// releasing detaches a's circuits from the accountant (which reads each
// circuit's shape, so this must precede the release that empties it). A
// departing VM's circuits add their Equation 1 energy; an evicted VM's do
// not — their lifetime is cut short.
func (ac *accounting) releasing(vm workload.VM, a *sched.Assignment, evicted bool) {
	life := time.Duration(float64(vm.Lifetime) * SecondsPerTimeUnit * float64(time.Second))
	for _, fl := range [...]*network.Flow{a.CPURAMFlow, a.RAMSTOFlow} {
		if fl == nil {
			continue
		}
		ac.meter.Remove(fl)
		if !evicted {
			ac.eq1EnergyJ += ac.model.FlowEnergy(fl, life)
		}
	}
}

// record feeds the signals' values from time t onward into the
// time-weighted integrators; util is the compute utilization per
// resource in percent.
func (ac *accounting) record(t int64, util [units.NumResources]float64, fab *network.Fabric) {
	ft := float64(t)
	for k := range util {
		ac.utilW[k].Set(ft, util[k])
	}
	ac.intraW.Set(ft, fab.IntraRackUtilization()*100)
	ac.interW.Set(ft, fab.InterRackUtilization()*100)
	ac.powerW.Set(ft, ac.meter.Power())
}

// result reads a finite run's Result off its counters and this piece.
func (ac *accounting) result(ss *SteadyState) *Result {
	end := float64(ss.End)
	res := &Result{
		Algorithm: ss.Algorithm, Workload: ss.Workload,
		Scheduled: ss.TotalAccepted, Dropped: ss.TotalDropped,
		InterRack: ac.interRack, InterPod: ac.interPod,
		AvgIntraUtil: ac.intraW.Average(end), PeakIntraUtil: ac.intraW.Peak(),
		AvgInterUtil: ac.interW.Average(end), PeakInterUtil: ac.interW.Peak(),
		PeakPowerW: ac.meter.PeakPower(), AvgPowerW: ac.powerW.Average(end),
		EnergyJ: ac.meter.EnergyJoules(), Eq1EnergyJ: ac.eq1EnergyJ,
		SchedulingTime: ss.SchedulingTime, Makespan: ss.End,
		Enqueued: ss.Enqueued, RetrySucceeded: ss.RetrySucceeded, MeanWait: ss.MeanWait,
		Displaced: ss.Displaced, Recovered: ss.Recovered, DisplacedLost: ss.DisplacedLost,
	}
	for k := range ac.utilW {
		res.AvgUtil[k] = ac.utilW[k].Average(end)
		res.PeakUtil[k] = ac.utilW[k].Peak()
	}
	if res.Scheduled > 0 {
		res.MeanCPURAMLatency = ac.latencySum / time.Duration(res.Scheduled)
	}
	if total := res.Scheduled + res.Dropped; total > 0 {
		res.InterRackPct = float64(res.InterRack) / float64(total) * 100
	}
	return res
}
