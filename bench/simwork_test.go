package main

import "testing"

// smallStream is a stream workload shrunk to test size: 36 racks so the
// round-robin cursor has somewhere to go, a warm-up long enough to fill
// the cluster, a few windows of measurement.
func smallStream(resume bool) streamSpec {
	return streamSpec{
		racks: 36, load: 0.90, controlled: !resume, warmup: 7000, window: 3000, resume: resume,
		budget: map[string]int{"NULB": 4000, "NALB": 1500, "RISA": 4000, "RISA-BF": 4000},
		lap:    map[string]int{"NULB": 200, "NALB": 100, "RISA": 200, "RISA-BF": 200},
	}
}

// The traced run must take the same path as the plain one: every cell's
// digest equal, on the fresh RunStream path (controller feedback through
// the stream decorator) and across a WarmStream/ResumeStream boundary
// (scheduler and stream state through the decorators' snapshot surface).
func TestTracedRunIsDigestIdenticalToPlain(t *testing.T) {
	cases := map[string]func(int64) (simState, error){
		"fresh":   setupStream(smallStream(false)),
		"resumed": setupStream(smallStream(true)),
		"finite":  setupPaper,
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			st, err := setup(7)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := st.round(false, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := st.round(true, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain) != len(traced) || len(plain) == 0 {
				t.Fatalf("%d plain cells, %d traced", len(plain), len(traced))
			}
			for i := range plain {
				p, tr := plain[i], traced[i]
				if p.digest != tr.digest {
					t.Errorf("cell %s: traced digest %s, plain %s", p.name, tr.digest, p.digest)
				}
				if tr.tr == nil || tr.tr.calls(spanSchedule) == 0 {
					t.Errorf("cell %s: the traced run recorded no Schedule span", p.name)
				}
				if p.arrivals != tr.arrivals || p.accepted != tr.accepted {
					t.Errorf("cell %s: plain %d/%d, traced %d/%d arrivals/accepted", p.name, p.arrivals, p.accepted, tr.arrivals, tr.accepted)
				}
			}
		})
	}
}

// A resumed cell must process exactly its budget beyond the snapshot, and
// the decorators must have seen those arrivals and no warm-up ones.
func TestResumedCellCountsOnlyItsOwnArrivals(t *testing.T) {
	spec := smallStream(true)
	st, err := setupStream(spec)(3)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := st.round(true, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.arrivals != spec.budget[c.alg] {
			t.Errorf("%s processed %d arrivals, budget %d", c.alg, c.arrivals, spec.budget[c.alg])
		}
		if got := int(c.tr.calls(spanSchedule)); got < c.arrivals-1 || got > c.arrivals+1 {
			t.Errorf("%s: %d Schedule spans for %d arrivals", c.alg, got, c.arrivals)
		}
	}
}

func TestDigestIgnoresWallClockFields(t *testing.T) {
	st, err := setupStream(smallStream(false))(1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := st.round(false, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.round(false, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].digest != b[i].digest {
			t.Errorf("cell %s: two plain rounds digest %s and %s", a[i].name, a[i].digest, b[i].digest)
		}
	}
	other, err := setupStream(smallStream(false))(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := other.round(false, false)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].digest == c[0].digest {
		t.Errorf("seeds 1 and 2 digest the same: the digest does not see the simulated fields")
	}
}

// A plain cell is cut into laps that cover all its decisions, and the lap
// counter must not change what the simulator does: TestTracedRun... above
// compares its digests with the traced run's, which has no lap counter.
func TestPlainCellsAreCutIntoLaps(t *testing.T) {
	spec := smallStream(true)
	cases := map[string]func(int64) (simState, error){"resumed": setupStream(spec), "finite": setupPaper}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			st, err := setup(3)
			if err != nil {
				t.Fatal(err)
			}
			cells, err := st.round(false, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				calls := 0
				for _, l := range c.laps {
					calls += l.calls
					if l.ns <= 0 {
						t.Errorf("%s: a lap of %g ns", c.name, l.ns)
					}
				}
				// A resumed cell decides once more than it counts: the arrival
				// in flight at the snapshot point.
				if calls < c.arrivals || calls > c.arrivals+1 {
					t.Errorf("%s: the laps hold %d decisions, the cell %d arrivals", c.name, calls, c.arrivals)
				}
				if want := c.arrivals / c.lapEvery; len(c.laps) < want {
					t.Errorf("%s: %d laps for %d arrivals at %d per lap", c.name, len(c.laps), c.arrivals, c.lapEvery)
				}
			}
			s := st.summary([][]simCell{cells, cells})
			if s.hostNSPerVM <= 0 || s.placePerSec <= 0 || s.p50US <= 0 {
				t.Errorf("summary %+v", s)
			}
		})
	}
}

func TestByPositionReadsEachLapAcrossItsRepeats(t *testing.T) {
	repeat := func(build, a, b, rest float64) []lap {
		return []lap{{ns: build}, {ns: a, calls: 10}, {ns: b, calls: 10}, {ns: rest, calls: 3}}
	}
	laps := byPosition([][]lap{repeat(5, 30, 20, 9), repeat(7, 20, 40, 8), repeat(6, 50, 60, 9), repeat(9, 25, 30, 10)})
	want := []float64{5, 20, 20, 8}
	for i, l := range laps {
		if l.ns != want[i] {
			t.Errorf("lap %d reads %g ns, want %g", i, l.ns, want[i])
		}
	}
	if per := perDecision(laps, 10); len(per) != 2 || per[0] != 2 || per[1] != 2 {
		t.Errorf("full laps cost %v per decision, want [2 2]", per)
	}
	if short := byPosition([][]lap{repeat(1, 1, 1, 1), repeat(1, 1, 1, 1)[:2]}); len(short) != 2 {
		t.Errorf("%d laps from repeats of 4 and 2, want the common 2", len(short))
	}
}

func TestPerAlgorithmWeighsRateByArrivals(t *testing.T) {
	host, perSec := perAlgorithm([]float64{1000, 4000}, []float64{300, 100})
	if host < 1999.999 || host > 2000.001 {
		t.Errorf("geometric mean cost %g, want 2000", host)
	}
	// 300 arrivals at 1 us and 100 at 4 us take 700 us.
	if want := 400 / 700e-6; perSec < want*0.999 || perSec > want*1.001 {
		t.Errorf("placements per second %g, want %g", perSec, want)
	}
}
