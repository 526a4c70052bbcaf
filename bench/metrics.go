package main

import "risa/internal/experiments"

// metricDef names one metric. The tables below are the single definition
// the harness prints from and compares by; BENCHMARK.json at the repo
// root repeats them for the driver and a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is measured with tracing off, on every workload. README.md
// says what each reads on each workload, and how each timing is taken to
// a nominal box so that it does not follow the shared box's disk, memory
// system and clock. A bound holds for a metric on all five workloads, so
// it is set by the noisiest of them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_ns_per_vm", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "place_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "place_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "accept_pct", Unit: "%", Better: "higher", Bound: 0.01},
}

// algLayer maps an algorithm to the layer prefix of its per-layer names.
var algLayer = map[string]string{
	"RISA":    "core.risa",
	"RISA-BF": "core.risa-bf",
	"NULB":    "baseline.nulb",
	"NALB":    "baseline.nalb",
}

// perLayer is measured by the traced pass. A name a workload does not
// exercise reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lower("workload.next_ns", "ns"),
		lower("workload.next_calls", "count"),
		lower("workload.gen_trace_ms", "ms"),

		lower("topology.alloc_release_ns", "ns"),
		lower("topology.next_rack_fits_ns", "ns"),
		lower("topology.max_free_ns", "ns"),
		lower("topology.fail_heal_ns", "ns"),
		lower("topology.build_ms", "ms"),
		lower("topology.bytes_per_box", "B"),

		lower("network.flow_intra_ns", "ns"),
		lower("network.flow_inter_ns", "ns"),
		lower("network.flow_refused", "count"),

		lower("sched.allocate_vm_ns", "ns"),
	}
	for _, alg := range experiments.Algorithms {
		p := algLayer[alg]
		defs = append(defs,
			lower(p+".schedule_ns", "ns"),
			lower(p+".schedule_p99_ns", "ns"),
			lower(p+".release_ns", "ns"),
			lower(p+".schedule_calls", "count"),
			lower(p+".schedule_failed", "count"),
			lower(p+".inter_rack_pct", "%"),
		)
	}
	return append(defs,
		lower("sim.run.self_ns_per_vm", "ns"),
		lower("sim.stream.self_ns_per_vm", "ns"),
		lower("sim.driver.self_ns_per_vm", "ns"),
		lower("sim.events", "count"),
		lower("sim.allocs_per_vm", "count"),
		lower("sim.warm_ms", "ms"),
		lower("sim.snapshot_clone_ms", "ms"),
		lower("sim.resume_ms", "ms"),
		lower("sim.trace_overhead_pct", "%"),
		higher("sim.risa_power_saving_pct", "%"),
		higher("sim.risa_rtt_saving_pct", "%"),

		lower("power.add_remove_ns", "ns"),

		lower("svc.engine.place_us_p50", "us"),
		lower("svc.engine.place_us_p99", "us"),
		higher("svc.engine.place_per_s", "1/s"),
		lower("svc.journal.us_p50", "us"),
		lower("svc.journal.non_fsync_us_p50", "us"),
		lower("svc.journal.bytes_per_record", "B"),
		lower("svc.snapshot.ms_at_10k", "ms"),
		lower("svc.snapshot.ms_at_40k", "ms"),
		lower("svc.snapshot.bytes_at_40k", "B"),
		lower("svc.open.cold_ms", "ms"),
		lower("svc.recover_ms", "ms"),
		lower("svc.http.rtt_us_p50", "us"),
		lower("svc.http.overhead_us_p50", "us"),
		lower("svc.rtt_us_p50", "us"),
		lower("svc.rtt_p99_us", "us"),
		lower("svc.rtt_p999_us", "us"),
		lower("svc.rtt_max_us", "us"),
		higher("svc.place_per_s.q1", "1/s"),
		higher("svc.place_per_s.q4", "1/s"),
		lower("svc.queue.depth_max", "count"),
		lower("svc.queue.shed", "count"),
		lower("svc.queue.expired", "count"),
		lower("svc.stats_us_p50", "us"),
		lower("svc.mutate_us_p50", "us"),
		lower("svc.swap_us_p50", "us"),

		lower("ref.rtt_us_p50", "us"),
		lower("ref.rtt_p99_us", "us"),
		lower("loadgen.lag_us_p99", "us"),
		lower("device.fsync_us_p50", "us"),
		lower("device.fsync_paced_us_p50", "us"),
		lower("host.spin_ns", "ns"),
	)
}
