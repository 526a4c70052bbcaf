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

	sig metrics.Integrator // utilization per resource, then the three below
}

// The signal indices in accounting.sig after the per-resource utilizations.
const (
	sigIntra = int(units.NumResources) + iota
	sigInter
	sigPower
	numSignals
)

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
// departing VM's circuits add their Equation 1 energy, setup plus the power
// removed over the lifetime; an evicted VM's do not: its life is cut short.
func (ac *accounting) releasing(vm workload.VM, a *sched.Assignment, evicted bool) {
	life := time.Duration(float64(vm.Lifetime) * SecondsPerTimeUnit * float64(time.Second)).Seconds()
	for _, fl := range [...]*network.Flow{a.CPURAMFlow, a.RAMSTOFlow} {
		if fl != nil {
			if p := ac.meter.Remove(fl); !evicted {
				ac.eq1EnergyJ += ac.model.SetupEnergy(fl) + p*life
			}
		}
	}
}

// record feeds the signals' values from time t onward into the
// integrator; v holds the compute utilization per resource in percent.
func (ac *accounting) record(t int64, v [numSignals]float64, fab *network.Fabric) {
	v[sigIntra] = fab.IntraRackUtilization() * 100
	v[sigInter] = fab.InterRackUtilization() * 100
	v[sigPower] = ac.meter.Power()
	ac.sig.Set(float64(t), v[:])
}

// result reads a finite run's Result off its counters and this piece.
func (ac *accounting) result(ss *SteadyState) *Result {
	end := float64(ss.End)
	res := &Result{
		Algorithm: ss.Algorithm, Workload: ss.Workload,
		Scheduled: ss.TotalAccepted, Dropped: ss.TotalDropped,
		InterRack: ac.interRack, InterPod: ac.interPod,
		AvgIntraUtil: ac.sig.Average(sigIntra, end), PeakIntraUtil: ac.sig.Peak(sigIntra),
		AvgInterUtil: ac.sig.Average(sigInter, end), PeakInterUtil: ac.sig.Peak(sigInter),
		PeakPowerW: ac.meter.PeakPower(), AvgPowerW: ac.sig.Average(sigPower, end),
		EnergyJ: ac.meter.EnergyJoules(), Eq1EnergyJ: ac.eq1EnergyJ,
		SchedulingTime: ss.SchedulingTime, Makespan: ss.End,
		Enqueued: ss.Enqueued, RetrySucceeded: ss.RetrySucceeded, MeanWait: ss.MeanWait,
		Displaced: ss.Displaced, Recovered: ss.Recovered, DisplacedLost: ss.DisplacedLost,
	}
	for k := range res.AvgUtil {
		res.AvgUtil[k] = ac.sig.Average(k, end)
		res.PeakUtil[k] = ac.sig.Peak(k)
	}
	if res.Scheduled > 0 {
		res.MeanCPURAMLatency = ac.latencySum / time.Duration(res.Scheduled)
	}
	if total := res.Scheduled + res.Dropped; total > 0 {
		res.InterRackPct = float64(res.InterRack) / float64(total) * 100
	}
	return res
}
