package network

import (
	"fmt"
	"math/rand"
	"testing"

	"risa/internal/units"
)

// branchyPick is pick as it was before its MaxAvail scan went branch-free:
// one compare chain per link, keeping the first link of the greatest free
// amount. It stays here as the oracle FuzzLinkPick holds pick to.
func branchyPick(group []Link, bw units.Bandwidth, policy Policy) *Link {
	switch policy {
	case MaxAvail:
		var best *Link
		for i := range group {
			l := &group[i]
			if !l.failed && l.free >= bw && (best == nil || l.free > best.free) {
				best = l
			}
		}
		return best
	default:
		for i := range group {
			l := &group[i]
			if !l.failed && l.free >= bw {
				return l
			}
		}
		return nil
	}
}

// FuzzLinkPick holds pick to the branchy oracle under both policies. The
// first byte gives bw (1–3); each further byte, up to 16, is a link whose
// free amount is its low two bits (0–3, so equal maxima are common) and
// which is failed when bit 2 is set. The chosen link must be the oracle's,
// nil included.
func FuzzLinkPick(f *testing.F) {
	f.Add([]byte{0, 3, 3})       // two equal maxima: the first wins
	f.Add([]byte{0, 2, 3, 1, 3}) // equal maxima apart
	f.Add([]byte{2, 7, 3, 2, 3}) // the failed maximum is skipped
	f.Add([]byte{4, 1, 2, 6, 5}) // nothing fits bw 3
	f.Add([]byte{0, 4, 5, 6, 7}) // every link failed
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 17)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		bw := 1 + units.Bandwidth(data[0]%3)
		links := data[1:min(len(data), 17)]
		group := make([]Link, len(links))
		for i, b := range links {
			group[i] = Link{free: units.Bandwidth(b & 3), failed: b&4 != 0}
		}
		for _, policy := range []Policy{FirstFit, MaxAvail} {
			if got, want := pick(group, bw, policy), branchyPick(group, bw, policy); got != want {
				t.Fatalf("%v, bw %d over %+v: picked %s, oracle %s",
					policy, bw, group, linkIndex(group, got), linkIndex(group, want))
			}
		}
	})
}

// linkIndex names a picked link by its position in group.
func linkIndex(group []Link, l *Link) string {
	for i := range group {
		if &group[i] == l {
			return fmt.Sprintf("#%d", i)
		}
	}
	return "nil"
}
