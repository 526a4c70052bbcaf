package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"risa/internal/baseline"
	"risa/internal/core"
	"risa/internal/network"
	"risa/internal/optics"
	"risa/internal/power"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// refSignal is one time-weighted signal on a clock of its own: the
// integrator the accounting piece kept six of before they shared one.
type refSignal struct {
	lastT, value, integral, peak float64
	started                      bool
	startT                       float64
}

func (w *refSignal) set(t, value float64) {
	if !w.started {
		w.started = true
		w.startT = t
	} else {
		if t < w.lastT {
			panic(fmt.Sprintf("time went backwards: %g < %g", t, w.lastT))
		}
		w.integral += w.value * (t - w.lastT)
	}
	w.lastT = t
	w.value = value
	if value > w.peak {
		w.peak = value
	}
}

func (w *refSignal) average(end float64) float64 {
	if !w.started || end <= w.startT {
		return 0
	}
	return (w.integral + w.value*(end-w.lastT)) / (end - w.startT)
}

// refAccounting is the reference the accounting piece must reproduce bit
// for bit: six one-signal integrators, and the power model evaluated
// switch by switch and link by link for every circuit each time it is
// attached, detached or billed.
type refAccounting struct {
	st  *sched.State
	c   *eventCore
	cfg optics.Config

	util                [units.NumResources]refSignal
	intra, inter, power refSignal

	watts, peakW, energy, setup float64

	scheduled, dropped  int
	interRack, interPod int
	latencySum          time.Duration
	eq1                 float64
	schedTime           time.Duration
}

// trimTrans is one circuit's trimming and transceiver power, each summed
// over the switches and link traversals its class crosses.
func (ra *refAccounting) trimTrans(fl *network.Flow) (trim, trans float64) {
	c := fl.Class()
	trim = float64(c.BoxSwitchCrossings())*ra.cfg.PathTrimmingPower(optics.BoxSwitchPorts) +
		float64(c.RackSwitchCrossings())*ra.cfg.PathTrimmingPower(optics.RackSwitchPorts) +
		float64(c.InterRackSwitchCrossings())*ra.cfg.PathTrimmingPower(optics.InterRackSwitchPorts)
	trans = float64(c.LinkTraversals()) * optics.TransceiverPower(fl.BW())
	return trim, trans
}

func (ra *refAccounting) setupOf(fl *network.Flow) float64 {
	c := fl.Class()
	return float64(c.BoxSwitchCrossings())*optics.PathSwitchingEnergy(optics.BoxSwitchPorts) +
		float64(c.RackSwitchCrossings())*optics.PathSwitchingEnergy(optics.RackSwitchPorts) +
		float64(c.InterRackSwitchCrossings())*optics.PathSwitchingEnergy(optics.InterRackSwitchPorts)
}

func flowsOf(a *sched.Assignment) []*network.Flow {
	var out []*network.Flow
	for _, fl := range [...]*network.Flow{a.CPURAMFlow, a.RAMSTOFlow} {
		if fl != nil {
			out = append(out, fl)
		}
	}
	return out
}

// sample sets every signal to its current reading at the current instant.
func (ra *refAccounting) sample() {
	t := float64(ra.c.now)
	for _, k := range units.Resources() {
		ra.util[k].set(t, ra.st.Cluster.Utilization(k)*100)
	}
	ra.intra.set(t, ra.st.Fabric.IntraRackUtilization()*100)
	ra.inter.set(t, ra.st.Fabric.InterRackUtilization()*100)
	ra.power.set(t, ra.watts)
}

// result assembles the Result the run must return.
func (ra *refAccounting) result(alg, name string) *Result {
	end := float64(ra.c.now)
	res := &Result{
		Algorithm: alg, Workload: name,
		Scheduled: ra.scheduled, Dropped: ra.dropped,
		InterRack: ra.interRack, InterPod: ra.interPod,
		AvgIntraUtil: ra.intra.average(end), PeakIntraUtil: ra.intra.peak,
		AvgInterUtil: ra.inter.average(end), PeakInterUtil: ra.inter.peak,
		PeakPowerW: ra.peakW, AvgPowerW: ra.power.average(end),
		EnergyJ: ra.energy + ra.setup, Eq1EnergyJ: ra.eq1,
		SchedulingTime: ra.schedTime, Makespan: ra.c.now,
	}
	for k := range ra.util {
		res.AvgUtil[k] = ra.util[k].average(end)
		res.PeakUtil[k] = ra.util[k].peak
	}
	if res.Scheduled > 0 {
		res.MeanCPURAMLatency = ra.latencySum / time.Duration(res.Scheduled)
	}
	if total := res.Scheduled + res.Dropped; total > 0 {
		res.InterRackPct = float64(res.InterRack) / float64(total) * 100
	}
	return res
}

// teeObserver passes every event-core callback to the run loop and feeds
// the same outcome to the reference. The reference samples its signals
// before the clock moves and after every placement: on a run without
// faults or retries that gives each signal the loop's own value over
// every interval, and the same peak, because a departure only lowers the
// signals and a placement only raises them.
type teeObserver struct {
	observer
	ref *refAccounting
}

func (o *teeObserver) advance(to int64) {
	ra := o.ref
	ra.sample()
	ra.energy += ra.watts * (float64(to-ra.c.now) * SecondsPerTimeUnit)
	o.observer.advance(to)
}

func (o *teeObserver) decided(vm workload.VM, d time.Duration, direct bool) {
	o.ref.schedTime += d
	o.observer.decided(vm, d, direct)
}

func (o *teeObserver) placed(q QueuedVMState, a *sched.Assignment, waited bool) {
	o.observer.placed(q, a, waited)
	ra := o.ref
	ra.scheduled++
	if a.InterRack() {
		ra.interRack++
	}
	if a.InterPod() {
		ra.interPod++
	}
	ra.latencySum += a.CPURAMLatency()
	for _, fl := range flowsOf(a) {
		trim, trans := ra.trimTrans(fl)
		ra.watts += trans + trim
		ra.setup += ra.setupOf(fl)
		if ra.watts > ra.peakW {
			ra.peakW = ra.watts
		}
	}
	ra.sample()
}

func (o *teeObserver) dropped(q QueuedVMState) {
	o.ref.dropped++
	o.observer.dropped(q)
}

func (o *teeObserver) releasing(vm workload.VM, a *sched.Assignment, evicted bool) {
	ra := o.ref
	life := time.Duration(float64(vm.Lifetime) * SecondsPerTimeUnit * float64(time.Second))
	for _, fl := range flowsOf(a) {
		trim, trans := ra.trimTrans(fl)
		ra.watts -= trans + trim
		if ra.watts < 0 {
			ra.watts = 0
		}
		if !evicted {
			ra.eq1 += ra.setupOf(fl) + (trim+trans)*life.Seconds()
		}
	}
	o.observer.releasing(vm, a, evicted)
}

// accountingDatacenter is a small datacenter whose racks fill after a
// few VMs, so placements span racks — and pods, on the three-tier fabric
// (two racks a pod) — and some arrivals drop.
func accountingDatacenter(t testing.TB, threeTier bool) *sched.State {
	t.Helper()
	ncfg := network.DefaultConfig()
	if threeTier {
		ncfg.RacksPerPod = 2
	}
	st, err := sched.NewState(topology.Config{
		Racks: 6, CPUBoxes: 1, RAMBoxes: 1, STOBoxes: 1,
		BricksPerBox: 4, UnitsPerBrick: 4, Units: units.DefaultConfig(),
	}, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// accountingTrace decodes fuzz bytes into a valid, arrival-ordered trace:
// four bytes a VM — arrival gap (0 keeps the instant: bursts), lifetime,
// and the request's CPU and RAM; storage follows from both.
func accountingTrace(data []byte) *workload.Trace {
	tr := &workload.Trace{Name: "fuzz-accounting"}
	var now int64
	for i := 0; i+4 <= len(data) && len(tr.VMs) < 96; i += 4 {
		now += int64(data[i] % 6)
		tr.VMs = append(tr.VMs, workload.VM{
			ID:       len(tr.VMs),
			Arrival:  now,
			Lifetime: 1 + int64(data[i+1]%40),
			Req: units.Vec(1+units.Amount(data[i+2]%48), 1+units.Amount(data[i+3]%48),
				64*(1+units.Amount((data[i+2]^data[i+3])%8))),
		})
	}
	return tr
}

var accountingSchedulers = [...]func(*sched.State) sched.Scheduler{
	func(s *sched.State) sched.Scheduler { return core.New(s) },
	func(s *sched.State) sched.Scheduler { return core.NewBF(s) },
	baseline.NewNULB,
	baseline.NewNALB,
}

// checkRunAccounting plays tr through Run and, on a twin datacenter,
// through the finite loop with the reference teed onto its observer,
// then requires every Result field to match bit for bit: the teed run's
// against the reference, and Run's against the teed run's (its
// wall-clock SchedulingTime excepted).
func checkRunAccounting(t *testing.T, tr *workload.Trace, threeTier bool, alg uint8) *Result {
	t.Helper()
	mk := accountingSchedulers[int(alg)%len(accountingSchedulers)]
	cfg := optics.Config{Alpha: 0.5 + float64(alg%6)/10}
	model, err := power.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runner := func() *Runner {
		st := accountingDatacenter(t, threeTier)
		r, err := NewRunner(st, mk(st), Config{PowerModel: model})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	r := runner()
	sr := r.newFiniteRun(workload.NewTraceStream(tr))
	ref := &refAccounting{st: r.st, c: sr.c, cfg: cfg}
	ref.sample() // the reading at t = 0, as newFiniteRun took it
	sr.c.obs = &teeObserver{observer: sr, ref: ref}
	if err := sr.loop(); err != nil {
		t.Fatal(err)
	}
	got := sr.acct.result(sr.finish())
	ref.sample()
	sameResult(t, "finite loop vs reference", got, ref.result(r.sch.Name(), tr.Name))

	viaRun, err := runner().Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	viaRun.SchedulingTime = got.SchedulingTime
	sameResult(t, "Run vs finite loop", viaRun, got)
	return got
}

// sameResult fails on the first field of two Results that differs, with
// floats compared by their bits.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		g, w := gv.Field(i), wv.Field(i)
		if !sameBits(g, w) {
			t.Fatalf("%s: %s = %v, want %v", what, name, g.Interface(), w.Interface())
		}
	}
}

func sameBits(g, w reflect.Value) bool {
	switch g.Kind() {
	case reflect.Float64:
		return math.Float64bits(g.Float()) == math.Float64bits(w.Float())
	case reflect.Array:
		for i := 0; i < g.Len(); i++ {
			if !sameBits(g.Index(i), w.Index(i)) {
				return false
			}
		}
		return true
	default:
		return g.Interface() == w.Interface()
	}
}

// FuzzRunAccounting plays fuzzed finite traces through Run on a two-tier
// and a three-tier datacenter, under every scheduler and every α of the
// sweep, and holds the whole Result to the reference accounting.
func FuzzRunAccounting(f *testing.F) {
	f.Add([]byte{0, 9, 40, 7, 0, 30, 3, 47, 2, 5, 20, 20, 0, 39, 47, 47, 1, 1, 1, 1}, false, uint8(0))
	f.Add([]byte{0, 9, 40, 7, 0, 30, 3, 47, 2, 5, 20, 20, 0, 39, 47, 47, 1, 1, 1, 1}, true, uint8(3))
	f.Add(accountingSeed(), true, uint8(1))
	f.Add(accountingSeed(), true, uint8(2))
	f.Add([]byte{}, true, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, threeTier bool, alg uint8) {
		checkRunAccounting(t, accountingTrace(data), threeTier, alg)
	})
}

// accountingSeed is a trace dense enough to fill the six racks: bursts of
// large VMs with long lifetimes, then a tail of small ones.
func accountingSeed() []byte {
	var b []byte
	for i := 0; i < 60; i++ {
		b = append(b, byte(i%3), byte(20+i%19), byte(17+i*7%31), byte(11+i*5%37))
	}
	return b
}

// TestRunAccountingReachesEveryClass runs the dense seed under every
// scheduler on the three-tier fabric against the reference, and requires
// the seed to reach what the comparison is for: inter-rack and inter-pod
// circuits, drops, and departures billed to Equation 1.
func TestRunAccountingReachesEveryClass(t *testing.T) {
	var interRack, interPod, dropped int
	for alg := range accountingSchedulers {
		res := checkRunAccounting(t, accountingTrace(accountingSeed()), true, uint8(alg))
		interRack += res.InterRack
		interPod += res.InterPod
		dropped += res.Dropped
		if res.Eq1EnergyJ <= 0 || res.PeakPowerW <= 0 {
			t.Errorf("alg %d: Equation 1 %g J, peak %g W: nothing billed", alg, res.Eq1EnergyJ, res.PeakPowerW)
		}
	}
	if interRack == 0 || interPod == 0 || dropped == 0 {
		t.Errorf("seed reaches %d inter-rack, %d inter-pod placements and %d drops; want all three", interRack, interPod, dropped)
	}
}
