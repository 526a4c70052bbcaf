package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strconv"

	"risa/internal/sim"
)

// goldenJSON is the committed correctness reference: for each seed in
// goldenSeeds, the digest of every simulator cell and the exact simulated
// metrics of each simulator workload. It is embedded so the check does
// not depend on the directory the harness is started from.
//
//go:embed golden.json
var goldenJSON []byte

// goldenSeeds are the seeds -update-golden records. A run with any other
// seed is still checked for determinism (every round and the traced pass
// must reproduce the first round's digests) and for conserved counters,
// but not against a stored reference.
var goldenSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

// goldenEntry is one (workload, seed) reference.
type goldenEntry struct {
	// Cells maps a cell name (e.g. "azure-3000/RISA") to its digest.
	Cells map[string]string `json:"cells"`
	// Exact holds the simulated metrics, compared bit for bit.
	Exact map[string]float64 `json:"exact"`
}

// golden maps workload → decimal seed → entry.
type golden map[string]map[string]goldenEntry

func loadGolden() (golden, error) {
	g := golden{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func (g golden) lookup(workload string, seed int64) (goldenEntry, bool) {
	e, ok := g[workload][strconv.FormatInt(seed, 10)]
	return e, ok
}

// digester hashes a fixed list of named fields. Fields are written out
// one by one rather than through %+v of the whole struct, so a field
// added to a result type later does not invalidate the stored digests;
// floats print in shortest exact form, so equal digests mean equal bits.
type digester struct{ h hash.Hash }

func newDigester() digester { return digester{sha256.New()} }

func (d digester) add(vals ...any) {
	for _, v := range vals {
		fmt.Fprintf(d.h, "%v|", v)
	}
}

func (d digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }

// digestResult digests the deterministic fields of a finite run: all the
// simulated counters, utilizations, latency, power and energy. The
// wall-clock SchedulingTime is left out.
func digestResult(r *sim.Result) string {
	d := newDigester()
	d.add(r.Algorithm, r.Workload, r.Scheduled, r.Dropped, r.InterRack, r.InterRackPct, r.InterPod)
	d.add(r.AvgUtil, r.PeakUtil, r.AvgIntraUtil, r.PeakIntraUtil, r.AvgInterUtil, r.PeakInterUtil)
	d.add(int64(r.MeanCPURAMLatency), r.PeakPowerW, r.AvgPowerW, r.EnergyJ, r.Eq1EnergyJ, r.Makespan)
	d.add(r.Enqueued, r.RetrySucceeded, r.MeanWait, r.Displaced, r.Recovered, r.DisplacedLost)
	return d.sum()
}

// digestSteady digests the deterministic fields of a stream run: the
// whole-run and measured counters, every window, the utilization
// averages, the sample counts (counts of events, not times), the end
// state and the controller's final multiplier. The wall-clock fields
// (latency percentiles, SchedulingTime, WallTime) are left out.
func digestSteady(s *sim.SteadyState) string {
	d := newDigester()
	d.add(s.Algorithm, s.Workload, s.TotalArrivals, s.TotalAccepted, s.TotalDropped)
	d.add(s.Arrivals, s.Accepted, s.Dropped, len(s.Windows))
	for _, w := range s.Windows {
		d.add(w.Start, w.End, w.Arrivals, w.Accepted, w.Dropped, w.Displaced, w.Recovered, w.AvgUtil)
	}
	d.add(s.AvgUtil, s.LatencySamples, s.ReplaceSamples, s.End, s.Resident, s.RateMultiplier)
	d.add(s.Displaced, s.Recovered, s.DisplacedLost, s.Enqueued, s.RetrySucceeded, s.Preempted)
	return d.sum()
}
