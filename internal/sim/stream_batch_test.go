package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"risa/internal/baseline"
	"risa/internal/core"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// burstTrace builds an arrival stream dominated by same-instant bursts:
// at every 10-tu tick a burst of 1–8 VMs arrives in one instant, sizes
// and lifetimes varied deterministically so the run sees acceptances,
// drops and same-instant departures interleaved with the bursts. It is the
// batch-admission fixture: the serial oracle samples utilization after
// every arrival, the coalescing stream loop once per burst.
func burstTrace(n int) *workload.Trace {
	tr := &workload.Trace{Name: "burst-fixture"}
	reqs := []units.Vector{
		units.Vec(4, 8, 128),
		units.Vec(16, 32, 256),
		units.Vec(8, 64, 128),
		units.Vec(32, 16, 512),
	}
	id := 0
	for tick := 0; id < n; tick++ {
		burst := 1 + (tick*5)%8
		for j := 0; j < burst && id < n; j++ {
			tr.VMs = append(tr.VMs, workload.VM{
				ID:       id,
				Arrival:  int64(tick * 10),
				Lifetime: int64(50 + (id%7)*40),
				Tier:     id % workload.NumTiers,
				Req:      reqs[id%len(reqs)],
			})
			id++
		}
	}
	return tr
}

// serialOracle wraps a trace stream in a no-op utilization observer. The
// stream loop never coalesces a stream that observes utilization — it
// owes it feedback after every arrival — so the wrapped stream runs the
// serial one-at-a-time admission the coalesced path must reproduce.
type serialOracle struct{ *workload.TraceStream }

func (serialOracle) ObserveUtilization(float64) {}

// burstStream returns tr as a stream: coalesced (the default), or the
// serial one-at-a-time oracle.
func burstStream(tr *workload.Trace, serial bool) workload.Stream {
	if serial {
		return serialOracle{workload.NewTraceStream(tr)}
	}
	return workload.NewTraceStream(tr)
}

// normalizeSteady zeroes every wall-clock-derived field of a SteadyState
// so two runs can be compared on their deterministic outputs alone —
// placements, counters, windows, utilization integrals and sample
// counts all remain.
func normalizeSteady(ss *SteadyState) *SteadyState {
	c := *ss
	c.SchedulingTime, c.WallTime = 0, 0
	c.LatencyP50, c.LatencyP95, c.LatencyP99 = 0, 0, 0
	c.ReplaceP95 = 0
	for i := range c.Tiers {
		c.Tiers[i].LatencyP50, c.Tiers[i].LatencyP95, c.Tiers[i].LatencyP99 = 0, 0, 0
	}
	c.Windows = append([]WindowStats(nil), ss.Windows...)
	return &c
}

// runBurst runs tr through RunStream under one scheduler constructor and
// fault surface, coalesced or as the serial oracle, and returns the
// normalized result plus the cluster's final visible-free vectors.
func runBurst(t *testing.T, mk func(*sched.State) sched.Scheduler, f Faults, tr *workload.Trace, cfg StreamConfig, serial bool) (*SteadyState, [units.NumResources][]units.Amount) {
	t.Helper()
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(st, mk(st), Config{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := r.RunStream(burstStream(tr, serial), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var vecs [units.NumResources][]units.Amount
	for _, k := range units.Resources() {
		for _, rack := range st.Cluster.Racks() {
			vecs[k] = append(vecs[k], rack.FreeVecOf(k)...)
		}
	}
	return normalizeSteady(ss), vecs
}

// checkFiniteBurst runs tr through Run's finite setting twice, coalesced
// and as the serial oracle, and fails unless both give the same Result:
// every counter, peak, average, power, energy and latency figure, the
// wall-clock SchedulingTime excepted.
func checkFiniteBurst(t *testing.T, mk func(*sched.State) sched.Scheduler, f Faults, tr *workload.Trace) {
	t.Helper()
	run := func(serial bool) *Result {
		st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(st, mk(st), Config{Faults: f})
		if err != nil {
			t.Fatal(err)
		}
		sr := r.newFiniteRun(burstStream(tr, serial))
		if err := sr.loop(); err != nil {
			t.Fatal(err)
		}
		res := sr.acct.result(sr.finish())
		res.SchedulingTime = 0
		return res
	}
	if serial, got := run(true), run(false); !reflect.DeepEqual(serial, got) {
		t.Errorf("batched finite Result diverges from serial (retry %v):\nserial: %+v\nbatch:  %+v", f.Retry, serial, got)
	}
}

// TestBatchAdmissionMatchesSerial pins the batch-admission equivalence:
// for every scheduler, a batched run must reproduce the serial oracle's
// SteadyState (wall-clock fields excluded) and leave the cluster in the
// bit-identical free state — placements, counters, windows and window
// metrics all agree. Run's finite setting must likewise reproduce the
// serial oracle's Result, with and without the retry queue.
func TestBatchAdmissionMatchesSerial(t *testing.T) {
	mks := map[string]func(*sched.State) sched.Scheduler{
		"RISA":    func(s *sched.State) sched.Scheduler { return core.New(s) },
		"RISA-BF": func(s *sched.State) sched.Scheduler { return core.NewBF(s) },
		"NULB":    baseline.NewNULB,
		"NALB":    baseline.NewNALB,
	}
	base := StreamConfig{
		Workload: StreamWorkload{MaxArrivals: 500},
		Windows:  StreamWindows{Warmup: 100, Window: 150},
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			serial, serialVecs := runBurst(t, mk, Faults{}, burstTrace(500), base, true)
			got, gotVecs := runBurst(t, mk, Faults{}, burstTrace(500), base, false)
			if !reflect.DeepEqual(serial, got) {
				t.Errorf("batched SteadyState diverges from serial:\nserial: %+v\nbatch:  %+v", serial, got)
			}
			if !reflect.DeepEqual(serialVecs, gotVecs) {
				t.Errorf("batched run leaves different cluster free state")
			}
			checkFiniteBurst(t, mk, Faults{}, burstTrace(500))
			checkFiniteBurst(t, mk, Faults{Retry: true}, burstTrace(500))
		})
	}
}

// TestBatchAdmissionMatchesSerialUnderRetryAndPreempt covers the arrival
// block's other paths under batching: the retry queue (arrivals joining
// behind a blocked head, drains inside a burst) and tiered preemption.
func TestBatchAdmissionMatchesSerialUnderRetryAndPreempt(t *testing.T) {
	mk := func(s *sched.State) sched.Scheduler { return core.New(s) }
	for _, tc := range []struct {
		name string
		f    Faults
	}{
		{"retry", Faults{Retry: true}},
		{"retry+preempt", Faults{Retry: true, Preempt: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := StreamConfig{
				Workload: StreamWorkload{MaxArrivals: 500},
				Windows:  StreamWindows{Warmup: 100, Window: 150},
			}
			serial, serialVecs := runBurst(t, mk, tc.f, burstTrace(500), cfg, true)
			got, gotVecs := runBurst(t, mk, tc.f, burstTrace(500), cfg, false)
			if !reflect.DeepEqual(serial, got) {
				t.Errorf("batched SteadyState diverges from serial:\nserial: %+v\nbatch:  %+v", serial, got)
			}
			if !reflect.DeepEqual(serialVecs, gotVecs) {
				t.Errorf("batched run leaves different cluster free state")
			}
		})
	}
}

// TestBatchAdmissionSnapshotBoundary proves the snapshot boundary cannot
// diverge under batching: armed at an instant that lands exactly on (and
// inside) a same-instant burst, the serial and batched runs capture
// bit-identical snapshots — the boundary condition is monotone in the
// next-event time at a fixed instant, so it always fires before the
// burst's first arrival, never between two of them.
func TestBatchAdmissionSnapshotBoundary(t *testing.T) {
	// 205 sits past burst instants 0..200; arming at 200 makes the
	// boundary coincide with a burst's exact instant. Both lie in the
	// warm phase, where a snapshot is taken.
	for _, at := range []int64{200, 205} {
		t.Run(fmt.Sprintf("at=%d", at), func(t *testing.T) {
			capture := func(serial bool) *Snapshot {
				cfg := StreamConfig{
					Workload: StreamWorkload{MaxArrivals: 500},
					Windows:  StreamWindows{Warmup: 300, Window: 150},
					Snapshot: StreamSnapshot{At: at},
				}
				_, r := newRunner(t, func(s *sched.State) sched.Scheduler { return core.New(s) })
				var s workload.Stream = &countedTrace{TraceStream: workload.NewTraceStream(burstTrace(500))}
				if serial {
					s = serialCounted{s.(*countedTrace)}
				}
				snap, err := r.WarmStream(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Strip the one wall-clock observation a snapshot carries,
				// the aggregate Schedule time.
				snap.Counters.SchedulingTime = 0
				return snap
			}
			serial, batched := capture(true), capture(false)
			if !reflect.DeepEqual(serial, batched) {
				t.Errorf("snapshot at %d diverges between serial and batched runs", at)
			}
		})
	}
}

// countedTrace is a trace stream that records its position, the number
// of arrivals drawn, so WarmStream can capture it; the boundary test only
// captures, so it is never restored.
type countedTrace struct {
	*workload.TraceStream
	n int
}

func (s *countedTrace) Next() (workload.VM, bool) {
	vm, ok := s.TraceStream.Next()
	if ok {
		s.n++
	}
	return vm, ok
}

func (s *countedTrace) StreamState() workload.StreamState {
	return workload.StreamState{Name: s.Name(), Index: s.n}
}

func (s *countedTrace) RestoreStreamState(workload.StreamState) error {
	return errors.New("countedTrace is captured, never restored")
}

// serialCounted is countedTrace as the serial oracle (see serialOracle).
type serialCounted struct{ *countedTrace }

func (serialCounted) ObserveUtilization(float64) {}

// fuzzBurstTrace decodes fuzz bytes into an arrival stream of bursts.
// Each 3-byte op is (burst, shape, life): `burst%8+1` VMs arrive in one
// instant, requests rotate from `shape`, lifetimes vary with `life`, and
// the clock advances `burst%3` ticks — an advance of 0 merges adjacent
// decoded bursts into one larger same-instant burst, so the coalescing
// window sees runs of every length the input can express.
func fuzzBurstTrace(data []byte) *workload.Trace {
	const maxVMs = 160
	tr := &workload.Trace{Name: "fuzz-burst"}
	reqs := []units.Vector{
		units.Vec(4, 8, 128),
		units.Vec(16, 32, 256),
		units.Vec(8, 64, 128),
		units.Vec(32, 16, 512),
	}
	var at int64
	for i := 0; i+2 < len(data) && len(tr.VMs) < maxVMs; i += 3 {
		burst := 1 + int(data[i])%8
		for j := 0; j < burst && len(tr.VMs) < maxVMs; j++ {
			id := len(tr.VMs)
			tr.VMs = append(tr.VMs, workload.VM{
				ID:       id,
				Arrival:  at,
				Lifetime: int64(20 + (int(data[i+2])+j)%5*35),
				Tier:     id % workload.NumTiers,
				Req:      reqs[(int(data[i+1])+j)%len(reqs)],
			})
		}
		at += int64(int(data[i])%3) * 10
	}
	return tr
}

// FuzzBatchAdmission fuzzes the batch-admission equivalence: an
// arbitrary byte string becomes a burst-shaped arrival stream (same
// decoding for both runs), the first byte picks the scheduler and
// whether the retry queue is armed, and the serial loop's SteadyState
// and final free vectors are the oracle the batched loop must
// reproduce exactly — as its Result is for Run's finite setting.
func FuzzBatchAdmission(f *testing.F) {
	f.Add([]byte{0, 0, 0, 7, 1, 3, 2, 2, 4})          // merged same-instant runs
	f.Add([]byte{5, 3, 1, 1, 0, 0, 4, 2, 3, 7, 1, 0}) // mixed bursts, RISA-BF
	f.Add([]byte{2, 1, 4, 2, 1, 4, 2, 1, 4, 2, 1, 4}) // steady rhythm, NULB+retry
	f.Add([]byte{255, 255, 255, 128, 64, 32, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzBurstTrace(data)
		if len(tr.VMs) == 0 {
			t.Skip("no ops decoded")
		}
		mks := []func(*sched.State) sched.Scheduler{
			func(s *sched.State) sched.Scheduler { return core.New(s) },
			func(s *sched.State) sched.Scheduler { return core.NewBF(s) },
			baseline.NewNULB,
			baseline.NewNALB,
		}
		mk := mks[int(data[0])%len(mks)]
		f := Faults{Retry: data[0]%2 == 1}
		cfg := StreamConfig{
			Workload: StreamWorkload{MaxArrivals: len(tr.VMs)},
			Windows:  StreamWindows{Warmup: 20, Window: 60},
		}
		serial, serialVecs := runBurst(t, mk, f, tr, cfg, true)
		batched, batchedVecs := runBurst(t, mk, f, tr, cfg, false)
		if !reflect.DeepEqual(serial, batched) {
			t.Errorf("batched SteadyState diverges from serial:\nserial: %+v\nbatch:  %+v", serial, batched)
		}
		if !reflect.DeepEqual(serialVecs, batchedVecs) {
			t.Errorf("batched run leaves different cluster free state")
		}
		checkFiniteBurst(t, mk, f, tr)
	})
}
