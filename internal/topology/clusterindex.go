package topology

import (
	"fmt"

	"risa/internal/units"
)

// maxTree is a flat max-tree over rack indices. For one resource kind it
// stores, per rack, an UPPER BOUND on that rack's MaxFree;
// internal nodes hold the maximum of their children. It answers the
// cluster-level candidate query every scheduler's rack scan reduces to —
// "smallest rack index ≥ from whose best box could hold `need`" — in
// O(log racks) per candidate instead of a linear sweep over all racks.
//
// Layout: an 8-ary tree stored level by level, leaves in levels[0], each
// internal node covering a contiguous group of 8 children. Eight 8-byte
// amounts are exactly one 64-byte cache line, so every descent step reads
// one line of children instead of the two scattered probes per level a
// binary heap costs; at 16k racks that is 5 level hops instead of 14.
// Every level is padded to a multiple of 8 with unusedLeaf (strictly
// below any legal bound) so child groups are always full; building stops
// once a level fits in one group. A query climbs from its starting leaf
// only as far as it must and descends from there (firstAtLeast). The
// query/update semantics are identical to the binary segment-tree this
// layout replaced — same candidates in the same order — so placements
// cannot change.
//
// The bound is deliberately lazy on one side: decreases (allocate, fail)
// can only lower a rack's true maximum, so the stale value already stored
// is a valid upper bound and the tree is not touched at all. Increases
// (release, repair) set the bound to the rack's exact maximum, read off
// its free-vector window. Queries self-repair: a candidate leaf is
// verified against the rack's true MaxFree and tightened to it, charging
// the repair to the mutation that staled it. The tree therefore never
// claims a qualifying rack does not exist, and never yields a rack
// without verifying it.
type maxTree struct {
	n      int              // number of racks (leaves in use)
	levels [][]units.Amount // levels[0] = leaves; each padded to a multiple of fanout
}

// fanout is the tree arity: 8 children × 8-byte amounts = one 64-byte
// cache line per child group.
const fanout = 8

// unusedLeaf marks padding slots past the last real element of a level;
// it is below every legal bound (free amounts are ≥ 0) so padding never
// qualifies.
const unusedLeaf = units.Amount(-1)

// padded returns n rounded up to a multiple of fanout.
func padded(n int) int { return (n + fanout - 1) / fanout * fanout }

// newMaxTree returns a tree for n racks with every bound set to
// unusedLeaf; callers seed real leaves with set.
func newMaxTree(n int) maxTree {
	t := maxTree{n: n}
	for w := padded(n); ; w = padded(w / fanout) {
		level := make([]units.Amount, w)
		for i := range level {
			level[i] = unusedLeaf
		}
		t.levels = append(t.levels, level)
		if w <= fanout {
			return t
		}
	}
}

// leaf returns rack i's current bound.
func (t *maxTree) leaf(i int) units.Amount { return t.levels[0][i] }

// set stores rack i's bound exactly and fixes the ancestor maxima,
// stopping at the first ancestor whose stored maximum is already right.
func (t *maxTree) set(i int, v units.Amount) {
	if t.levels[0][i] == v {
		return
	}
	t.levels[0][i] = v
	for j := 0; j+1 < len(t.levels); j++ {
		g := i / fanout
		m := unusedLeaf
		for _, c := range t.levels[j][g*fanout : g*fanout+fanout] {
			m = max(m, c)
		}
		if t.levels[j+1][g] == m {
			return
		}
		t.levels[j+1][g] = m
		i = g
	}
}

// firstAtLeast returns the smallest rack index ≥ from whose bound is ≥
// need, or -1. Candidates still need verification against the rack's true
// maximum — see Cluster.NextRackWith.
//
// The walk is iterative. It climbs from the leaf from: it scans the rest
// of the current child group, and once the group is exhausted it moves to
// the parent's next sibling, whose subtree starts right after everything
// scanned so far. The first node ≥ need it meets covers the answer, so it
// then descends, at each level to the first child ≥ need — which exists
// because every internal node is the maximum of its children.
func (t *maxTree) firstAtLeast(from int, need units.Amount) int {
	if from < 0 {
		from = 0
	}
	if from >= t.n {
		return -1
	}
	j, i := 0, from
	for t.levels[j][i] < need {
		i++
		if i%fanout == 0 {
			if i == len(t.levels[j]) {
				return -1 // nothing right of here on this level
			}
			j, i = j+1, i/fanout
		}
	}
	for ; j > 0; j-- {
		i *= fanout
		for t.levels[j-1][i] < need {
			i++
		}
	}
	return i
}

// checkTree verifies the tree's structural invariants for tests: every
// internal node equals the maximum of its child group, and every padding
// slot still holds unusedLeaf.
func (t *maxTree) checkTree() error {
	for j := 0; j+1 < len(t.levels); j++ {
		lower, upper := t.levels[j], t.levels[j+1]
		for g := 0; g < len(lower)/fanout; g++ {
			m := unusedLeaf
			for _, c := range lower[g*fanout : g*fanout+fanout] {
				m = max(m, c)
			}
			if upper[g] != m {
				return fmt.Errorf("level %d node %d = %d, children max %d", j+1, g, upper[g], m)
			}
		}
		for g := len(lower) / fanout; g < len(upper); g++ {
			if upper[g] != unusedLeaf {
				return fmt.Errorf("level %d padding node %d = %d", j+1, g, upper[g])
			}
		}
	}
	for i := t.n; i < len(t.levels[0]); i++ {
		if t.levels[0][i] != unusedLeaf {
			return fmt.Errorf("padding leaf %d = %d", i, t.levels[0][i])
		}
	}
	return nil
}

// initCandidateIndex seeds the per-kind trees with the freshly built
// racks' exact maxima.
func (c *Cluster) initCandidateIndex() {
	for _, k := range units.Resources() {
		c.cidx[k] = newMaxTree(len(c.racks))
		for i, rack := range c.racks {
			c.cidx[k].set(i, rack.maxFree(k))
		}
	}
}

// noteRackIncrease sets the candidate tree's bound for b's rack to the
// rack's exact maximum after b's visible free amount grew (release into a
// healthy box, or repair); b's free-vector slot must already be synced.
// Decreases need no counterpart: a shrinking maximum leaves the stored
// bound a valid upper bound, and the next query tightens it lazily.
func (c *Cluster) noteRackIncrease(b *Box) {
	c.cidx[b.kind].set(b.rack, c.racks[b.rack].maxFree(b.kind))
}

// NextRackWith returns the smallest rack index ≥ from whose MaxFree(k) is
// at least need, or -1 when no such rack exists. It is the cluster-level
// candidate query behind RISA's SUPER_RACK and NULB/NALB's rack scans:
// candidates come from the per-kind tree in ascending rack order — the
// exact order the pre-index linear sweeps used — and every candidate is
// verified against (and the tree tightened to) the rack's true maximum, so
// the answer is identical to scanning all racks. Amortized cost is
// O(log racks) per returned rack.
func (c *Cluster) NextRackWith(k units.Resource, need units.Amount, from int) int {
	t := &c.cidx[k]
	// Fast path: when candidates are dense (lightly loaded clusters, small
	// needs) the very next rack usually qualifies; one leaf probe then
	// costs what one iteration of the pre-index linear scan did, and the
	// logarithmic descent is reserved for skipping sparse regions.
	if from >= 0 && from < t.n && t.leaf(from) >= need {
		top := c.racks[from].maxFree(k)
		if top >= need {
			return from
		}
		t.set(from, top)
		from++
	}
	for {
		i := t.firstAtLeast(from, need)
		if i < 0 {
			return -1
		}
		top := c.racks[i].maxFree(k)
		if top != t.leaf(i) {
			t.set(i, top)
		}
		if top >= need {
			return i
		}
		from = i + 1
	}
}

// NextRackFits returns the smallest rack index ≥ from that FitsWholeVM(req)
// — the cluster-level form of RISA's INTRA_RACK_POOL test — or -1. It
// leapfrogs the per-kind candidate sequences: the current candidate is
// advanced to each requested kind's next qualifying rack until one pass
// leaves it unmoved, at which point every kind qualifies. Resources with a
// zero request never constrain, matching FitsWholeVM.
func (c *Cluster) NextRackFits(req units.Vector, from int) int {
	i := from
	if i < 0 {
		i = 0
	}
	for i < len(c.racks) {
		advanced := false
		for _, k := range units.Resources() {
			if req[k] == 0 {
				continue
			}
			j := c.NextRackWith(k, req[k], i)
			if j < 0 {
				return -1
			}
			if j > i {
				i = j
				advanced = true
			}
		}
		if !advanced {
			return i
		}
	}
	return -1
}
