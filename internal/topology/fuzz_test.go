package topology

import (
	"testing"

	"risa/internal/units"
)

// FuzzClusterIndex drives a cluster of 1–80 racks — candidate trees of
// one, two and three levels — through an arbitrary
// allocate/release/fail/heal sequence decoded from the fuzz input and
// checks, after every operation, that (a) CheckInvariants holds — which
// includes the free vectors, the brick masks and the cluster candidate
// tree — and (b) the two query tiers agree with a brute-force rescan of
// the boxes: MaxFree/Free per rack and NextRackWith over the whole
// cluster, from rack 0 and from a rack the op names. The boxes' brick
// counters are the ground truth (CheckInvariants ties the cached sums to
// them), so any divergence the fuzzer finds is an index maintenance bug,
// not an oracle artifact.
//
// The seed corpus covers every opcode and the failed-then-healed release
// orders on 3 racks, and on 9 and 65 racks a query that has to climb one
// and two tree levels past failed racks; CI additionally runs a 30 s fuzz
// smoke (see ci.yml).
func FuzzClusterIndex(f *testing.F) {
	// racks is the rack count minus one, modulo 80. One op is three bytes:
	// opcode (op%4; op/4 extends the box selector by a high byte, so every
	// box of a large cluster is reachable), box selector, amount selector.
	f.Add(byte(2), []byte{0, 0, 10, 0, 1, 200, 1, 0, 0})                  // alloc, alloc, release
	f.Add(byte(2), []byte{0, 3, 255, 2, 3, 0, 1, 0, 0, 3, 3, 0})          // alloc, fail, release-into-failed, heal
	f.Add(byte(2), []byte{2, 0, 0, 3, 0, 0, 0, 0, 50, 1, 0, 0})           // fail, heal, alloc, release
	f.Add(byte(2), []byte{0, 2, 128, 0, 2, 128, 2, 2, 0, 2, 2, 0})        // double-fail idempotence
	f.Add(byte(2), []byte{3, 5, 0, 3, 5, 0, 0, 5, 64, 2, 5, 0})           // heal-healthy no-op, alloc, fail
	f.Add(byte(2), []byte{0, 1, 40, 0, 0, 90, 2, 0, 0, 3, 0, 0, 1, 0, 0}) // stale-bound fail/heal cycle
	f.Add(byte(8), failCPUBoxes(8))                                       // 9 racks: climb one level
	f.Add(byte(64), failCPUBoxes(64))                                     // 65 racks: climb two levels
	f.Fuzz(func(t *testing.T, racks byte, ops []byte) {
		cfg := DefaultConfig()
		cfg.Racks = int(racks)%80 + 1
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		boxes := c.Boxes()
		var live []Placement
		for i := 0; i+2 < len(ops); i += 3 {
			op, amt := ops[i], ops[i+2]
			b := boxes[(int(op/4)<<8|int(ops[i+1]))%len(boxes)]
			switch op % 4 {
			case 0: // allocate: amount scaled to the box capacity, never 0
				amount := units.Amount(amt)%b.Capacity() + 1
				if p, err := c.Allocate(b, amount); err == nil {
					live = append(live, p)
				}
			case 1: // release a live placement (covers failed boxes too)
				if len(live) > 0 {
					j := int(ops[i+1]) % len(live)
					c.Release(live[j])
					live = append(live[:j], live[j+1:]...)
				}
			case 2:
				c.SetBoxFailed(b, true)
			case 3:
				c.SetBoxFailed(b, false)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
			checkIndexAgainstBruteForce(t, c, i/3, units.Amount(amt)+1, b.Rack())
		}
	})
}

// failCPUBoxes returns fuzz ops that fail both CPU boxes of racks
// 0..n-1 (on the default layout CPU boxes are a rack's first two), then
// allocate from rack 0's first RAM box: every CPU query after op 2n has
// to pass n racks of zero bounds.
func failCPUBoxes(n int) []byte {
	var ops []byte
	for r := 0; r < n; r++ {
		for _, id := range []int{6 * r, 6*r + 1} {
			ops = append(ops, byte(2+4*(id>>8)), byte(id), 0)
		}
	}
	return append(ops, 0, 2, 100)
}

// checkIndexAgainstBruteForce compares every indexed query against a
// direct scan of the boxes: the rack totals and maxima, the SoA
// visible-free vectors (rack views and the cluster-wide slice, element
// for element against Free()), the candidate tree behind NextRackWith,
// and the whole-VM leapfrog behind NextRackFits.
func checkIndexAgainstBruteForce(t *testing.T, c *Cluster, op int, need units.Amount, from int) {
	t.Helper()
	for _, k := range units.Resources() {
		firstFit, fromFit := -1, -1
		vec := c.vis[k]
		off := 0
		for _, rack := range c.Racks() {
			var total, max units.Amount
			var best *Box
			rv := rack.FreeVecOf(k)
			for i, b := range rack.BoxesOf(k) {
				f := b.Free()
				total += f
				if f > max {
					max, best = f, b
				}
				if rv[i] != f {
					t.Fatalf("op %d: rack %d FreeVecOf(%v)[%d] = %d, Free %d",
						op, rack.Index(), k, i, rv[i], f)
				}
				if vec[off+i] != f {
					t.Fatalf("op %d: vis[%v][%d] = %d, Free %d", op, k, off+i, vec[off+i], f)
				}
			}
			off += len(rack.BoxesOf(k))
			if got := rack.Free(k); got != total {
				t.Fatalf("op %d: rack %d Free(%v) = %d, scan %d", op, rack.Index(), k, got, total)
			}
			if gm, gb := rack.MaxFree(k); gm != max || gb != best {
				t.Fatalf("op %d: rack %d MaxFree(%v) = (%d, %v), scan (%d, %v)",
					op, rack.Index(), k, gm, gb, max, best)
			}
			if firstFit < 0 && max >= need {
				firstFit = rack.Index()
			}
			if fromFit < 0 && max >= need && rack.Index() >= from {
				fromFit = rack.Index()
			}
		}
		if got := c.NextRackWith(k, need, 0); got != firstFit {
			t.Fatalf("op %d: NextRackWith(%v, %d) = %d, scan %d", op, k, need, got, firstFit)
		}
		if got := c.NextRackWith(k, need, from); got != fromFit {
			t.Fatalf("op %d: NextRackWith(%v, %d, %d) = %d, scan %d", op, k, need, from, got, fromFit)
		}
	}
	// NextRackFits' leapfrog against a linear FitsWholeVM scan (the rack
	// maxima it reads were verified against the box scan above).
	req := units.Vec(need, need, need)
	want := -1
	for _, rack := range c.Racks() {
		if rack.FitsWholeVM(req) {
			want = rack.Index()
			break
		}
	}
	if got := c.NextRackFits(req, 0); got != want {
		t.Fatalf("op %d: NextRackFits(%v, 0) = %d, scan %d", op, req, got, want)
	}
}
