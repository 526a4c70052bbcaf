package topology

import (
	"fmt"
	"math/rand"
	"testing"

	"risa/internal/units"
)

// bruteMaxFree is the pre-index implementation of Rack.MaxFree: a full
// scan in box-index order with a strict comparison, so it returns the
// earliest box attaining the maximum.
func bruteMaxFree(r *Rack, k units.Resource) (units.Amount, *Box) {
	var best *Box
	var max units.Amount
	for _, b := range r.BoxesOf(k) {
		if f := b.Free(); f > max {
			max = f
			best = b
		}
	}
	return max, best
}

// bruteFits is the pre-index implementation of Rack.FitsWholeVM.
func bruteFits(r *Rack, req units.Vector) bool {
	for _, k := range units.Resources() {
		if req[k] == 0 {
			continue
		}
		if max, _ := bruteMaxFree(r, k); max < req[k] {
			return false
		}
	}
	return true
}

// bruteFree is the pre-index implementation of Rack.Free.
func bruteFree(r *Rack, k units.Resource) units.Amount {
	var total units.Amount
	for _, b := range r.BoxesOf(k) {
		total += b.Free()
	}
	return total
}

// bruteNextRackWith is the pre-index candidate scan: the first rack at or
// after from whose true MaxFree covers need.
func bruteNextRackWith(c *Cluster, k units.Resource, need units.Amount, from int) int {
	if from < 0 {
		from = 0
	}
	for i := from; i < c.NumRacks(); i++ {
		if max, _ := bruteMaxFree(c.Rack(i), k); max >= need {
			return i
		}
	}
	return -1
}

// bruteNextRackFits is the pre-index pool scan: the first rack at or after
// from that fits the whole request.
func bruteNextRackFits(c *Cluster, req units.Vector, from int) int {
	if from < 0 {
		from = 0
	}
	for i := from; i < c.NumRacks(); i++ {
		if bruteFits(c.Rack(i), req) {
			return i
		}
	}
	return -1
}

// checkIndexAgainstBrute compares every rack's window scans and the
// cluster tree's answers with the brute-force box scans, including
// returned-box identity (the window scan keeps the earliest-max tie-break
// of the original code).
func checkIndexAgainstBrute(t *testing.T, c *Cluster, rng *rand.Rand) {
	t.Helper()
	for _, rack := range c.Racks() {
		for _, k := range units.Resources() {
			wantMax, wantBox := bruteMaxFree(rack, k)
			gotMax, gotBox := rack.MaxFree(k)
			if gotMax != wantMax || gotBox != wantBox {
				t.Fatalf("rack %d %v: MaxFree = %d/%v, brute force = %d/%v",
					rack.Index(), k, gotMax, gotBox, wantMax, wantBox)
			}
			if got, want := rack.Free(k), bruteFree(rack, k); got != want {
				t.Fatalf("rack %d %v: Free = %d, brute force = %d", rack.Index(), k, got, want)
			}
		}
		req := units.Vec(
			units.Amount(rng.Intn(600)),
			units.Amount(rng.Intn(600)),
			units.Amount(rng.Intn(9000)),
		)
		if got, want := rack.FitsWholeVM(req), bruteFits(rack, req); got != want {
			t.Fatalf("rack %d: FitsWholeVM(%v) = %v, brute force = %v", rack.Index(), req, got, want)
		}
	}
	// Cluster-level candidate queries: NextRackWith and NextRackFits must
	// return exactly the rack a linear scan in ascending index order would,
	// from random starting points (including out-of-range ones) and at
	// random needs — the order the schedulers' placements depend on.
	for _, k := range units.Resources() {
		need := units.Amount(rng.Intn(10000))
		from := rng.Intn(c.NumRacks()+2) - 1
		if got, want := c.NextRackWith(k, need, from), bruteNextRackWith(c, k, need, from); got != want {
			t.Fatalf("NextRackWith(%v, %d, %d) = %d, brute force = %d", k, need, from, got, want)
		}
	}
	req := units.Vec(
		units.Amount(rng.Intn(600)),
		units.Amount(rng.Intn(600)),
		units.Amount(rng.Intn(9000)),
	)
	from := rng.Intn(c.NumRacks()+2) - 1
	if got, want := c.NextRackFits(req, from), bruteNextRackFits(c, req, from); got != want {
		t.Fatalf("NextRackFits(%v, %d) = %d, brute force = %d", req, from, got, want)
	}
}

// TestIndexMatchesBruteForce drives random alloc/release/fail/restore
// sequences and asserts after every operation that the free-vector scans
// and the candidate tree agree with a brute-force scan of the boxes — the
// equivalence the scheduling hot path relies on.
func TestIndexMatchesBruteForce(t *testing.T) {
	configs := map[string]Config{
		"default": DefaultConfig(),
		"skewed": {
			Racks: 5, CPUBoxes: 1, RAMBoxes: 3, STOBoxes: 4,
			BricksPerBox: 4, UnitsPerBrick: 8, Units: units.DefaultConfig(),
		},
		"single-box": {
			Racks: 3, CPUBoxes: 1, RAMBoxes: 1, STOBoxes: 1,
			BricksPerBox: 2, UnitsPerBrick: 4, Units: units.DefaultConfig(),
		},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			c := mustCluster(t, cfg)
			rng := rand.New(rand.NewSource(42))
			var live []Placement
			var failed []*Box
			const ops = 4000
			for i := 0; i < ops; i++ {
				switch op := rng.Intn(10); {
				case op < 4: // allocate a random amount from a random box
					b := c.Boxes()[rng.Intn(len(c.Boxes()))]
					if b.Free() == 0 {
						continue
					}
					amount := units.Amount(rng.Int63n(int64(b.Free()))) + 1
					p, err := c.Allocate(b, amount)
					if err != nil {
						if !b.Failed() {
							t.Fatalf("op %d: allocate %d from healthy %v: %v", i, amount, b, err)
						}
						continue
					}
					live = append(live, p)
				case op < 8: // release a random live placement
					if len(live) == 0 {
						continue
					}
					j := rng.Intn(len(live))
					c.Release(live[j])
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				case op < 9: // fail a random box
					b := c.Boxes()[rng.Intn(len(c.Boxes()))]
					if !b.Failed() {
						c.SetBoxFailed(b, true)
						failed = append(failed, b)
					}
				default: // restore a random failed box
					if len(failed) == 0 {
						continue
					}
					j := rng.Intn(len(failed))
					c.SetBoxFailed(failed[j], false)
					failed[j] = failed[len(failed)-1]
					failed = failed[:len(failed)-1]
				}
				checkIndexAgainstBrute(t, c, rng)
				if i%100 == 0 {
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
			}
			// Drain everything and verify the index lands back on a fully
			// free cluster.
			for _, b := range failed {
				c.SetBoxFailed(b, false)
			}
			for _, p := range live {
				c.Release(p)
			}
			checkIndexAgainstBrute(t, c, rng)
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for _, k := range units.Resources() {
				if c.TotalFree(k) != c.TotalCapacity(k) {
					t.Errorf("drained cluster: free %v != capacity", k)
				}
			}
		})
	}
}

// TestClusterIndexEnumerationUnderChurn lets the candidate tree's bounds
// go deeply stale (many mutations between queries, unlike the per-op
// checks above) and then enumerates full candidate sets, which must match
// a brute-force sweep exactly — order included. This is the INTRA_RACK_POOL
// / SUPER_RACK construction pattern.
func TestClusterIndexEnumerationUnderChurn(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	rng := rand.New(rand.NewSource(99))
	var live []Placement
	var failed []*Box
	for round := 0; round < 60; round++ {
		// A burst of mutations with no intervening reads.
		for i := 0; i < 150; i++ {
			switch op := rng.Intn(10); {
			case op < 5:
				b := c.Boxes()[rng.Intn(len(c.Boxes()))]
				if b.Free() == 0 {
					continue
				}
				p, err := c.Allocate(b, units.Amount(rng.Int63n(int64(b.Free())))+1)
				if err == nil {
					live = append(live, p)
				}
			case op < 8:
				if len(live) == 0 {
					continue
				}
				j := rng.Intn(len(live))
				c.Release(live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			case op < 9:
				b := c.Boxes()[rng.Intn(len(c.Boxes()))]
				if !b.Failed() {
					c.SetBoxFailed(b, true)
					failed = append(failed, b)
				}
			default:
				if len(failed) == 0 {
					continue
				}
				j := rng.Intn(len(failed))
				c.SetBoxFailed(failed[j], false)
				failed[j] = failed[len(failed)-1]
				failed = failed[:len(failed)-1]
			}
		}
		// Enumerate every candidate per kind and the whole-VM pool.
		for _, k := range units.Resources() {
			need := units.Amount(rng.Intn(600))
			var got, want []int
			for i := c.NextRackWith(k, need, 0); i >= 0; i = c.NextRackWith(k, need, i+1) {
				got = append(got, i)
			}
			for i := bruteNextRackWith(c, k, need, 0); i >= 0; i = bruteNextRackWith(c, k, need, i+1) {
				want = append(want, i)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d: %v candidates for %d: got %v, want %v", round, k, need, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round %d: %v candidates for %d: got %v, want %v", round, k, need, got, want)
				}
			}
		}
		req := units.Vec(
			units.Amount(rng.Intn(300)),
			units.Amount(rng.Intn(300)),
			units.Amount(rng.Intn(5000)),
		)
		var got, want []int
		for i := c.NextRackFits(req, 0); i >= 0; i = c.NextRackFits(req, i+1) {
			got = append(got, i)
		}
		for i := bruteNextRackFits(c, req, 0); i >= 0; i = bruteNextRackFits(c, req, i+1) {
			want = append(want, i)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: pool for %v: got %v, want %v", round, req, got, want)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestIndexSurvivesFailureChurn focuses on the failure-injection paths of
// failure_test.go: releases into failed boxes must not disturb the rack
// views or the candidate tree, and restores must re-expose exactly the
// right amounts.
func TestIndexSurvivesFailureChurn(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	rng := rand.New(rand.NewSource(7))
	rack := c.Rack(0)
	box := rack.BoxesOf(units.RAM)[0]
	p, err := c.Allocate(box, 100)
	if err != nil {
		t.Fatal(err)
	}
	c.SetBoxFailed(box, true)
	checkIndexAgainstBrute(t, c, rng)
	// Release while failed: capacity stays hidden.
	c.Release(p)
	checkIndexAgainstBrute(t, c, rng)
	if got, _ := rack.MaxFree(units.RAM); got != box.Capacity() {
		t.Errorf("max free with box 0 failed = %d, want the healthy box's %d", got, box.Capacity())
	}
	c.SetBoxFailed(box, false)
	checkIndexAgainstBrute(t, c, rng)
	if got := rack.Free(units.RAM); got != 2*box.Capacity() {
		t.Errorf("restored rack free = %d, want %d", got, 2*box.Capacity())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFirstAtLeastMatchesLinearScan holds the candidate tree's iterative
// climb-then-descend query to a linear scan of its leaves on trees of one,
// two and three levels (1–8, 9–64 and 65–512 racks, plus a four-level 600),
// after random bounds and random set sequences that raise and lower
// leaves: every from in [-1, n], every need from 0 to the largest bound
// plus one. checkTree runs after every set.
func TestFirstAtLeastMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{1, 7, 8, 9, 64, 65, 600} {
		tree := newMaxTree(n)
		leaves := make([]units.Amount, n)
		set := func(i int, v units.Amount) {
			tree.set(i, v)
			leaves[i] = v
			if err := tree.checkTree(); err != nil {
				t.Fatalf("n=%d after set(%d, %d): %v", n, i, v, err)
			}
		}
		for i := range leaves {
			set(i, units.Amount(rng.Intn(17)))
		}
		for round := 0; round < 20; round++ {
			for s := rng.Intn(2 * n); s >= 0; s-- {
				set(rng.Intn(n), units.Amount(rng.Intn(17)))
			}
			var top units.Amount
			for _, v := range leaves {
				top = max(top, v)
			}
			for need := units.Amount(0); need <= top+1; need++ {
				want := -1 // the first leaf ≥ need at or after from, scanned backwards
				for from := n; from >= -1; from-- {
					if from >= 0 && from < n && leaves[from] >= need {
						want = from
					}
					if got := tree.firstAtLeast(from, need); got != want {
						t.Fatalf("n=%d round %d: firstAtLeast(%d, %d) = %d, scan %d",
							n, round, from, need, got, want)
					}
				}
			}
		}
	}
}
