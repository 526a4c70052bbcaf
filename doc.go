// Package risa is a full reproduction of "RISA: Round-Robin Intra-Rack
// Friendly Scheduling Algorithm for Disaggregated Datacenters" (Kabir,
// Kim, Nikdast — SC-W 2023, DOI 10.1145/3624062.3624228).
//
// The library simulates the paper's disaggregated datacenter — racks of
// single-resource boxes connected by a two-tier optical circuit-switched
// fabric — and implements all four schedulers it evaluates: the NULB and
// NALB baselines (Zervas et al.) and the RISA / RISA-BF contribution.
// Beyond the paper's finite traces, a streaming workload engine
// (workload.Stream + sim.RunStream) sustains open-ended arrival streams
// at a controlled occupancy for steady-state churn experiments, and a
// fault subsystem (internal/faults + sim.Config.Faults, the one place a
// run's fault surface is set) plays stochastic hardware outage plans —
// with optional displaced-VM recovery, retry queue and preemption — for
// the availability and SLO ladders.
//
// Start with DESIGN.md for the system inventory, experiment index and
// steady-state methodology, EXPERIMENTS.md for measured-vs-paper
// numbers, cmd/risasim to regenerate any table or figure, and
// examples/quickstart for the API.
package risa
