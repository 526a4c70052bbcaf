package network

import (
	"fmt"

	"risa/internal/units"
)

// LinkRef addresses one link structurally, mirroring the Link's own
// coordinate fields: Tier, Rack, Box (the in-rack box index for box
// uplinks, -1 for rack uplinks, and the pod index for pod uplinks) and
// Index within the uplink group. Refs are stable across equally-sized
// fabrics, which makes them the serializable link identity snapshots use.
type LinkRef struct {
	Tier  Tier
	Rack  int
	Box   int
	Index int
}

// Ref returns the structural address of a link in this fabric.
func (f *Fabric) Ref(l *Link) LinkRef {
	return LinkRef{Tier: l.Tier(), Rack: l.Rack(), Box: l.Box(), Index: l.Index()}
}

// LinkByRef resolves a structural address back to the fabric's link.
func (f *Fabric) LinkByRef(ref LinkRef) (*Link, error) {
	switch ref.Tier {
	case BoxUplink:
		if ref.Rack < 0 || ref.Rack >= len(f.boxUplinks) ||
			ref.Box < 0 || ref.Box >= len(f.boxUplinks[ref.Rack]) ||
			ref.Index < 0 || ref.Index >= len(f.boxUplinks[ref.Rack][ref.Box]) {
			return nil, fmt.Errorf("network: no box uplink at %+v", ref)
		}
		return &f.boxUplinks[ref.Rack][ref.Box][ref.Index], nil
	case RackUplink:
		if ref.Rack < 0 || ref.Rack >= len(f.rackUplinks) ||
			ref.Index < 0 || ref.Index >= len(f.rackUplinks[ref.Rack]) {
			return nil, fmt.Errorf("network: no rack uplink at %+v", ref)
		}
		return &f.rackUplinks[ref.Rack][ref.Index], nil
	case PodUplink:
		if ref.Box < 0 || ref.Box >= len(f.podUplinks) ||
			ref.Index < 0 || ref.Index >= len(f.podUplinks[ref.Box]) {
			return nil, fmt.Errorf("network: no pod uplink at %+v", ref)
		}
		return &f.podUplinks[ref.Box][ref.Index], nil
	default:
		return nil, fmt.Errorf("network: unknown tier in %+v", ref)
	}
}

// Replay rebuilds a reservation on an exact recorded link path into the
// caller-owned fl, reserving bw on every named link. It is the link half
// of sched.State.Replay (snapshot restore, an undone preemption, a refused
// migration): Reserve picks links by policy against current load and
// therefore cannot reproduce an arbitrary historical path, while Replay
// reproduces the reservation link for link. All named links must be
// healthy with enough free bandwidth — restore replays flows onto a
// pristine fabric first and applies link failures afterwards — and a path
// longer than any the fabric builds, or a shape it never builds (between
// pods but inside one rack), is a damaged snapshot and refused. On
// error nothing is reserved and fl is left empty, as it must be on entry
// (see Reserve).
func (f *Fabric) Replay(fl *Flow, bw units.Bandwidth, refs []LinkRef, interRack, interPod bool) error {
	if bw < 0 {
		return fmt.Errorf("network: negative bandwidth %v", bw)
	}
	if len(refs) > maxFlowLinks {
		return fmt.Errorf("network: restored flow names %d links, a path has at most %d", len(refs), maxFlowLinks)
	}
	if interPod && !interRack {
		return fmt.Errorf("network: restored flow crosses pods without leaving its rack")
	}
	fl.mustBeEmpty()
	*fl = Flow{bw: bw, interRack: interRack, interPod: interPod}
	for _, ref := range refs {
		l, err := f.LinkByRef(ref)
		if err == nil && (l.failed || l.free < bw) {
			err = fmt.Errorf("network: restored flow of %v does not fit %v (free %v)", bw, l, l.Free())
		}
		if err != nil {
			f.Unreserve(fl)
			return err
		}
		f.extend(fl, l)
	}
	return nil
}

// FailedLinks returns the structural addresses of every currently failed
// link, in deterministic traversal order, for snapshot capture.
func (f *Fabric) FailedLinks() []LinkRef {
	var out []LinkRef
	collect := func(group []Link) {
		for i := range group {
			if group[i].failed {
				out = append(out, f.Ref(&group[i]))
			}
		}
	}
	for ri := range f.boxUplinks {
		for _, group := range f.boxUplinks[ri] {
			collect(group)
		}
	}
	for _, group := range f.rackUplinks {
		collect(group)
	}
	for _, group := range f.podUplinks {
		collect(group)
	}
	return out
}
