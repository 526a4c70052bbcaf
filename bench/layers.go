package main

import (
	"time"

	"risa/internal/network"
	"risa/internal/optics"
	"risa/internal/power"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// probeReq is the request the direct layer loops use: the smallest one.
// It fits wherever anything fits, so on a cluster held at 90% the loops
// time the mechanisms and not that moment's fragmentation.
var probeReq = units.Vec(1, 1, 1)

// rackStride walks racks in the direct loops. It is odd and larger than
// any rack's footprint in cache lines, so on a cluster past the
// last-level cache consecutive iterations land on cold racks, the way a
// round-robin scheduler's decisions do; on 18 racks everything is hot
// either way.
const rackStride = 1009

// probeSink receives the results of read-only probes so the compiler
// cannot drop the calls.
var probeSink int

// timeLoop runs f(0..n-1) three times and returns the median cost of one
// call in nanoseconds.
func timeLoop(n int, f func(i int)) float64 {
	var per []float64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per)
}

// layerLoops times the concrete types under the schedulers — Cluster,
// Fabric, State, Accountant — by calling their public methods directly on
// st, which the caller hands over as a scratch copy of the workload's
// warm state. Every loop undoes what it does, so occupancy is the same
// for each of them. The allocation loops aim at a rack's emptiest box, an
// O(1) index read that is part of the timed call.
func layerLoops(r *run, st *sched.State) error {
	cl, fab := st.Cluster, st.Fabric
	racks := cl.NumRacks()
	rackAt := func(i int) int { return (i * rackStride) % racks }
	const n = 100000

	// The allocation loops walk the racks that can still take the probe
	// request whole: on a cluster held at 90% most racks are out of one
	// resource or another and would only time the refusal.
	var open []int
	for from := cl.NextRackFits(probeReq, 0); from >= 0 && from < racks; from = cl.NextRackFits(probeReq, from+1) {
		open = append(open, from)
	}
	if len(open) == 0 {
		r.notef("layer loops: no rack fits %v whole; the allocation loops read 0", probeReq)
		return nil
	}
	openAt := func(i int) *topology.Rack { return cl.Rack(open[(i*rackStride)%len(open)]) }

	// topology
	refused := 0
	r.set("topology.alloc_release_ns", timeLoop(n, func(i int) {
		_, box := openAt(i).MaxFree(units.CPU)
		p, err := cl.Allocate(box, 1)
		if err != nil {
			refused++
			return
		}
		cl.Release(p)
	}))
	r.set("topology.next_rack_fits_ns", timeLoop(n, func(i int) {
		probeSink += cl.NextRackFits(probeReq, rackAt(i))
	}))
	r.set("topology.max_free_ns", timeLoop(n, func(i int) {
		free, _ := cl.Rack(rackAt(i)).MaxFree(units.Resource(i % int(units.NumResources)))
		probeSink += int(free)
	}))
	r.set("topology.fail_heal_ns", timeLoop(n/10, func(i int) {
		box := cl.Rack(rackAt(i)).BoxesOf(units.RAM)[0]
		cl.SetBoxFailed(box, true)
		cl.SetBoxFailed(box, false)
	}))

	// network: a flow inside an open rack, and one to the next open rack.
	bw := st.Units().CPURAMDemand(probeReq)
	flowLoop := func(hop int) float64 {
		return timeLoop(n, func(i int) {
			_, src := openAt(i).MaxFree(units.CPU)
			_, dst := openAt(i + hop*len(open)/2).MaxFree(units.RAM)
			fl, err := fab.AllocateFlow(src, dst, bw, network.FirstFit)
			if err != nil {
				refused++
				return
			}
			fab.ReleaseFlow(fl)
		})
	}
	r.set("network.flow_intra_ns", flowLoop(0))
	r.set("network.flow_inter_ns", flowLoop(1))
	r.set("network.flow_refused", float64(refused))

	// sched: the shared compute+network transaction on one fixed triple.
	var boxes sched.BoxTriple
	for _, k := range units.Resources() {
		_, boxes[k] = cl.Rack(open[0]).MaxFree(k)
	}
	vm := workload.VM{ID: 1 << 30, Lifetime: 1, Req: probeReq}
	var loopErr error
	r.set("sched.allocate_vm_ns", timeLoop(n, func(i int) {
		a, err := st.AllocateVM(vm, boxes, network.FirstFit)
		if err != nil {
			loopErr = err
			return
		}
		st.ReleaseVM(a)
	}))
	if loopErr != nil {
		return loopErr
	}

	// power
	model, err := power.NewModel(optics.DefaultConfig())
	if err != nil {
		return err
	}
	fl, err := fab.AllocateFlow(boxes[units.CPU], boxes[units.RAM], bw, network.FirstFit)
	if err != nil {
		return err
	}
	acct := power.NewAccountant(model)
	r.set("power.add_remove_ns", timeLoop(n, func(i int) {
		acct.Add(fl)
		acct.Remove(fl)
	}))
	fab.ReleaseFlow(fl)
	return nil
}
