// Package network models the two-tier optical circuit-switched fabric of
// the RISA paper's disaggregated datacenter.
//
// Topology of one flow path (Figure 2 of the paper):
//
//	src brick ── brick link ── box switch ── box uplink ── rack switch
//	                                                            │
//	                 (same rack: straight down)          rack uplink
//	                                                            │
//	                                                   inter-rack switch
//	                                                            │
//	                                              peer rack uplink ...
//
// Every optical link carries 200 Gb/s (eight 25 Gb/s SiP channels).
// Brick↔box-switch links are dedicated to their brick and therefore never
// contended; the fabric tracks bandwidth on the shared links only: box
// uplinks (box switch → rack switch) and rack uplinks (rack switch →
// inter-rack switch). Those two layers are exactly what the paper reports
// as intra-rack and inter-rack network utilization (Figure 8).
package network

import (
	"errors"
	"fmt"

	"risa/internal/topology"
	"risa/internal/units"
)

// Per-tier admission errors. Reserve fails on the scheduling hot path
// whenever a probe hits bandwidth fragmentation, so the errors are
// preallocated sentinels (match with errors.Is) instead of per-failure
// fmt.Errorf values — an allocation per failed probe would defeat the
// allocation-free decision path.
var (
	// ErrNoBoxUplink reports that no box uplink on the path had enough
	// free bandwidth.
	ErrNoBoxUplink = errors.New("network: no box-uplink with enough free bandwidth")
	// ErrNoRackUplink reports that no rack uplink on the path had enough
	// free bandwidth.
	ErrNoRackUplink = errors.New("network: no rack-uplink with enough free bandwidth")
	// ErrNoPodUplink reports that no pod uplink on the path had enough
	// free bandwidth (three-tier fabric only).
	ErrNoPodUplink = errors.New("network: no pod-uplink with enough free bandwidth")
)

// tierError returns the sentinel admission error for a tier.
func tierError(t Tier) error {
	switch t {
	case BoxUplink:
		return ErrNoBoxUplink
	case RackUplink:
		return ErrNoRackUplink
	default:
		return ErrNoPodUplink
	}
}

// Tier identifies the layer an optical link belongs to.
type Tier int

const (
	// BoxUplink links connect a box switch to its rack switch; their
	// aggregate is the intra-rack network capacity.
	BoxUplink Tier = iota
	// RackUplink links connect a rack switch to the next tier up — the
	// inter-rack switch in the paper's two-tier fabric, or the pod switch
	// in the three-tier extension; their aggregate is the inter-rack
	// network capacity.
	RackUplink
	// PodUplink links connect a pod switch to the core switch; they only
	// exist in the three-tier extension (Config.RacksPerPod > 0).
	PodUplink
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case BoxUplink:
		return "box-uplink"
	case RackUplink:
		return "rack-uplink"
	case PodUplink:
		return "pod-uplink"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Link is one shared optical link of capacity units.LinkCapacity with
// bandwidth accounting. Links live by value in their fabric's slabs (see
// Fabric), so the fields are packed into 24 bytes: pick's scan of a group
// reads one free amount per link.
type Link struct {
	free  units.Bandwidth
	tier  uint8 // the link's Tier
	rack  int32 // rack the link belongs to (-1 for pod uplinks)
	box   int32 // box index within rack (BoxUplink), pod index (PodUplink), else -1
	index int32 // uplink index within its group
}

// Tier returns the link's layer.
func (l *Link) Tier() Tier { return Tier(l.tier) }

// Rack returns the rack the link belongs to.
func (l *Link) Rack() int { return int(l.rack) }

// Box returns the in-rack box index for box uplinks, -1 for rack uplinks.
func (l *Link) Box() int { return int(l.box) }

// Index returns the link's position within its uplink group.
func (l *Link) Index() int { return int(l.index) }

// Free returns the bandwidth available to new flows.
func (l *Link) Free() units.Bandwidth { return l.free }

// String identifies the link for logs and errors.
func (l *Link) String() string {
	switch Tier(l.tier) {
	case BoxUplink:
		return fmt.Sprintf("box-uplink r%d/b%d/#%d", l.rack, l.box, l.index)
	case PodUplink:
		return fmt.Sprintf("pod-uplink p%d/#%d", l.box, l.index)
	default:
		return fmt.Sprintf("rack-uplink r%d/#%d", l.rack, l.index)
	}
}

// Config sizes the fabric. Defaults follow DESIGN.md §3: one brick link
// per brick (dedicated, untracked), 16 uplinks per box and RackUplinks per
// rack, all at units.LinkCapacity, which respects the paper's switch port
// counts (box 64 ports: 8 bricks + 16 uplinks; rack 256 ports: 96 down +
// 16 up; inter-rack 512 ports: 18 racks × 16 = 288).
type Config struct {
	BoxUplinks int // uplinks from each box switch to its rack switch

	// RacksPerPod, when positive, switches the fabric to the three-tier
	// structure of Shabka & Zervas (the paper's related-work contrast,
	// its ref [17]): racks group into pods of this size, each pod has a
	// pod switch, and pod switches connect to a core switch through
	// uplinksPerPod links each. Zero keeps the paper's two-tier fabric.
	RacksPerPod int
}

// RackUplinks is the number of uplinks from each rack switch to the tier above.
const RackUplinks = 16

// uplinksPerPod is the number of pod→core links per pod in the
// three-tier fabric.
const uplinksPerPod = 16

// DefaultConfig returns the link provisioning described in DESIGN.md.
func DefaultConfig() Config {
	return Config{BoxUplinks: 16}
}

// ThreeTier reports whether the pod tier is enabled.
func (c Config) ThreeTier() bool { return c.RacksPerPod > 0 }

// Validate checks structural sanity.
func (c Config) Validate() error {
	if c.BoxUplinks <= 0 {
		return fmt.Errorf("network: box uplink count must be positive, got %d", c.BoxUplinks)
	}
	if c.RacksPerPod < 0 {
		return fmt.Errorf("network: negative racks per pod (%d)", c.RacksPerPod)
	}
	return nil
}

// Policy selects how a link is chosen among candidates at one hop.
type Policy int

const (
	// FirstFit takes the first link with enough free bandwidth (NULB's
	// network phase, and RISA's).
	FirstFit Policy = iota
	// MaxAvail takes the link with the most free bandwidth (NALB's
	// network phase).
	MaxAvail
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case MaxAvail:
		return "max-avail"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Fabric owns every shared link of a cluster and its aggregate counters.
// The links are held by value: each rack's box and rack uplink groups are
// windows into one slab of that rack's links, and the pod groups into one
// slab of their own, so a hop's pick walks contiguous memory and a flow's
// *Link points into a slab. A slab never grows, which keeps those
// pointers valid for the fabric's lifetime.
type Fabric struct {
	cfg         Config
	boxUplinks  [][][]Link // [rack][boxIndex][uplink]
	rackUplinks [][]Link   // [rack][uplink]
	podUplinks  [][]Link   // [pod][uplink], three-tier only

	intraCap, intraFree units.Bandwidth     // aggregate over all box uplinks
	interCap, interFree units.Bandwidth     // aggregate over all rack uplinks
	podCap, podFree     units.Bandwidth     // aggregate over all pod uplinks
	rackIntraFree       []units.Bandwidth   // per-rack free over its box uplinks
	boxFree             [][]units.Bandwidth // [rack][boxIndex] free over the box's uplinks

	// freeFlows recycles the Flow records AllocateFlow hands out, so
	// direct users of the fabric do not allocate at steady state. The
	// scheduling path does not come here: an Assignment owns its two flows
	// by value and calls Reserve/Unreserve/Replay on them. Fabrics,
	// like schedulers, are single-goroutine.
	freeFlows []*Flow
}

// Pod returns the pod index of a rack (0 in the two-tier fabric).
func (f *Fabric) Pod(rack int) int {
	if !f.cfg.ThreeTier() {
		return 0
	}
	return rack / f.cfg.RacksPerPod
}

// NewFabric builds the fabric matching a cluster's rack/box layout.
func NewFabric(cl *topology.Cluster, cfg Config) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{cfg: cfg}
	racks := cl.Racks()
	f.boxUplinks = make([][][]Link, len(racks))
	f.rackUplinks = make([][]Link, len(racks))
	f.rackIntraFree = make([]units.Bandwidth, len(racks))
	f.boxFree = make([][]units.Bandwidth, len(racks))
	boxGroup := units.LinkCapacity * units.Bandwidth(cfg.BoxUplinks)
	for ri, rack := range racks {
		boxes := rack.Boxes()
		slab := make([]Link, len(boxes)*cfg.BoxUplinks+RackUplinks)
		f.boxUplinks[ri] = make([][]Link, len(boxes))
		f.boxFree[ri] = make([]units.Bandwidth, len(boxes))
		for bi := range boxes {
			f.boxUplinks[ri][bi] = carve(&slab, cfg.BoxUplinks, BoxUplink, ri, bi)
			f.boxFree[ri][bi] = boxGroup
			f.intraCap += boxGroup
			f.intraFree += boxGroup
			f.rackIntraFree[ri] += boxGroup
		}
		f.rackUplinks[ri] = carve(&slab, RackUplinks, RackUplink, ri, -1)
		f.interCap += units.LinkCapacity * RackUplinks
		f.interFree += units.LinkCapacity * RackUplinks
	}
	if cfg.ThreeTier() {
		pods := (len(racks) + cfg.RacksPerPod - 1) / cfg.RacksPerPod
		slab := make([]Link, pods*uplinksPerPod)
		f.podUplinks = make([][]Link, pods)
		for pi := range f.podUplinks {
			f.podUplinks[pi] = carve(&slab, uplinksPerPod, PodUplink, -1, pi)
			f.podCap += units.LinkCapacity * uplinksPerPod
			f.podFree += units.LinkCapacity * uplinksPerPod
		}
	}
	return f, nil
}

// carve cuts the next n links off the front of *slab as one uplink group
// and initializes them fully free at units.LinkCapacity. The group's capacity is capped at n,
// so no append can ever spill into a neighbouring group.
func carve(slab *[]Link, n int, tier Tier, rack, box int) []Link {
	group := (*slab)[:n:n]
	*slab = (*slab)[n:]
	for ui := range group {
		group[ui] = Link{free: units.LinkCapacity, tier: uint8(tier), rack: int32(rack), box: int32(box), index: int32(ui)}
	}
	return group
}

// InterPodCapacity returns the aggregate pod-uplink capacity (zero in the
// two-tier fabric).
func (f *Fabric) InterPodCapacity() units.Bandwidth { return f.podCap }

// InterPodFree returns the aggregate free pod-uplink bandwidth.
func (f *Fabric) InterPodFree() units.Bandwidth { return f.podFree }

// IntraRackCapacity returns the aggregate box-uplink capacity.
func (f *Fabric) IntraRackCapacity() units.Bandwidth { return f.intraCap }

// IntraRackFree returns the aggregate free box-uplink bandwidth.
func (f *Fabric) IntraRackFree() units.Bandwidth { return f.intraFree }

// InterRackCapacity returns the aggregate rack-uplink capacity.
func (f *Fabric) InterRackCapacity() units.Bandwidth { return f.interCap }

// InterRackFree returns the aggregate free rack-uplink bandwidth.
func (f *Fabric) InterRackFree() units.Bandwidth { return f.interFree }

// IntraRackUtilization returns the used fraction of intra-rack bandwidth.
func (f *Fabric) IntraRackUtilization() float64 {
	if f.intraCap == 0 {
		return 0
	}
	return float64(f.intraCap-f.intraFree) / float64(f.intraCap)
}

// InterRackUtilization returns the used fraction of inter-rack bandwidth.
func (f *Fabric) InterRackUtilization() float64 {
	if f.interCap == 0 {
		return 0
	}
	return float64(f.interCap-f.interFree) / float64(f.interCap)
}

// RackIntraFree returns the free bandwidth over the rack's box uplinks;
// RISA's AVAIL_INTRA_RACK_NET test is a comparison against this.
func (f *Fabric) RackIntraFree(rack int) units.Bandwidth { return f.rackIntraFree[rack] }

// BoxUplinkFree returns the total free bandwidth of one box's uplinks.
// NALB's modified BFS orders candidate boxes by this value, descending.
// It is a running total kept by take and put, so the read is O(1) where
// a sum over the group was one per candidate box.
func (f *Fabric) BoxUplinkFree(box *topology.Box) units.Bandwidth {
	return f.boxFree[box.Rack()][box.Index()]
}

// pick chooses a link from group under the policy; nil if none fits.
// MaxAvail takes the first link with the greatest free amount of at least
// bw. Its one pass keeps (index, most) with plain compares, which compile
// to conditional moves: the links' free amounts race with each other, so
// a branch on each compare mispredicts often. pick is small enough to
// inline into Reserve's hop loop; CI fails when it no longer is.
func pick(group []Link, bw units.Bandwidth, policy Policy) *Link {
	switch policy {
	case MaxAvail:
		best, most := -1, bw-1
		for i := range group {
			if f := group[i].free; f > most {
				best, most = i, f
			}
		}
		if best < 0 {
			return nil
		}
		return &group[best]
	default:
		for i := range group {
			if l := &group[i]; l.free >= bw {
				return l
			}
		}
		return nil
	}
}

// maxFlowLinks is the longest shared-link path a flow can take: box,
// rack, pod, pod, rack, box uplinks for an inter-pod flow on the three-tier
// fabric (four without pods, two inside a rack). The bound is structural,
// so a flow keeps its path in a fixed array and needs no memory of its own.
const maxFlowLinks = 6

// Flow is a reserved optical circuit between two boxes. Hop and switch
// counts feed the power model; Links holds the shared links carrying the
// reservation so it can be released. A Flow is plain memory its owner
// provides — a sched.Assignment embeds its two, any other holder declares
// one — and Reserve/Unreserve fill and empty it; an emptied flow must not
// be read. AllocateFlow's pooled records serve, outside tests, only the
// loops of bench/layers.go, until those move to Reserve.
type Flow struct {
	bw        units.Bandwidth
	links     [maxFlowLinks]*Link
	n         uint8 // links[:n] carry the reservation
	interRack bool
	interPod  bool
	pooled    bool // on the fabric's free list; guards double ReleaseFlow
}

// BW returns the flow's reserved bandwidth.
func (fl *Flow) BW() units.Bandwidth { return fl.bw }

// InterRack reports whether the flow leaves its rack.
func (fl *Flow) InterRack() bool { return fl.interRack }

// InterPod reports whether the flow crosses pods (always false on the
// two-tier fabric).
func (fl *Flow) InterPod() bool { return fl.interPod }

// Links returns the shared links carrying the flow, in hop order (a view
// into the flow, valid until it is released).
func (fl *Flow) Links() []*Link { return fl.links[:fl.n] }

// Class is a flow's span, which fixes its hop and switch counts: inside
// one rack, between racks (of one pod on the three-tier fabric), or
// between pods. The power model keeps its per-flow constants per class.
type Class uint8

// The flow classes, narrowest first.
const (
	IntraRack Class = iota
	InterRack
	InterPod
	// NumClasses is the number of flow classes.
	NumClasses = 3
)

// Class returns the flow's span. A flow between pods is between racks
// too; the fabric builds no other shape.
func (fl *Flow) Class() Class {
	switch {
	case fl.interPod:
		return InterPod
	case fl.interRack:
		return InterRack
	default:
		return IntraRack
	}
}

// LinkTraversals returns the number of optical link hops including the
// two dedicated brick links: 4 intra-rack, 6 inter-rack, 8 inter-pod
// (three-tier). Each traversal is one transceiver pair in the power
// model.
func (c Class) LinkTraversals() int { return [NumClasses]int{4, 6, 8}[c] }

// BoxSwitchCrossings returns how many box switches a flow traverses.
func (c Class) BoxSwitchCrossings() int { return 2 }

// RackSwitchCrossings returns how many intra-rack switches a flow
// traverses.
func (c Class) RackSwitchCrossings() int { return [NumClasses]int{1, 2, 2}[c] }

// InterRackSwitchCrossings returns how many top-tier switches a flow
// traverses: on the two-tier fabric, 1 for inter-rack flows (the
// inter-rack switch); on the three-tier fabric, 1 for intra-pod
// inter-rack flows (the pod switch) and 3 for inter-pod flows (two pod
// switches plus the core). The power model treats all of them as the
// large 512-port class.
func (c Class) InterRackSwitchCrossings() int { return [NumClasses]int{0, 1, 3}[c] }

// Reserve reserves bw between the source and destination boxes into the
// caller-owned fl, choosing one uplink per hop under the given policy. On
// any hop failure the whole reservation is rolled back, fl is left empty
// and a sentinel tier error returned. A zero bandwidth flow is legal and
// reserves nothing but still records the path shape (used by latency
// accounting for degenerate requests). fl must be empty: overwriting a
// held reservation would strand its bandwidth, so that panics.
func (f *Fabric) Reserve(fl *Flow, src, dst *topology.Box, bw units.Bandwidth, policy Policy) error {
	if bw < 0 {
		return fmt.Errorf("network: negative bandwidth %v", bw)
	}
	fl.mustBeEmpty()
	*fl = Flow{bw: bw, interRack: src.Rack() != dst.Rack()}
	fl.interPod = f.cfg.ThreeTier() && f.Pod(src.Rack()) != f.Pod(dst.Rack())
	if bw == 0 {
		return nil
	}
	// The hop sequence lives in a fixed-size array — at most maxFlowLinks
	// shared groups (box, rack, pod, pod, rack, box) — so building it is
	// allocation-free.
	var hops [maxFlowLinks][]Link
	n := 0
	hops[n] = f.boxUplinks[src.Rack()][src.Index()]
	n++
	if fl.interRack {
		hops[n] = f.rackUplinks[src.Rack()]
		n++
		if fl.interPod {
			hops[n] = f.podUplinks[f.Pod(src.Rack())]
			n++
			hops[n] = f.podUplinks[f.Pod(dst.Rack())]
			n++
		}
		hops[n] = f.rackUplinks[dst.Rack()]
		n++
	}
	hops[n] = f.boxUplinks[dst.Rack()][dst.Index()]
	n++
	for _, group := range hops[:n] {
		l := pick(group, bw, policy)
		if l == nil {
			tier := Tier(group[0].tier)
			f.Unreserve(fl)
			return tierError(tier)
		}
		f.extend(fl, l)
	}
	return nil
}

// extend takes fl's bandwidth on l and appends l to fl's path — the one
// place a path grows, for Reserve's walk and Replay's alike.
func (f *Fabric) extend(fl *Flow, l *Link) {
	f.take(l, fl.bw)
	fl.links[fl.n] = l
	fl.n++
}

// mustBeEmpty panics when fl still carries a reservation, the state of a
// flow about to be filled only through a bug in its owner.
func (fl *Flow) mustBeEmpty() {
	if fl.n != 0 {
		panic(fmt.Sprintf("network: filling a flow that still holds %v on %d links", fl.bw, fl.n))
	}
}

// Unreserve returns the bandwidth fl holds on every link of its path and
// empties the record. It is also the rollback of a partially built path,
// and a no-op on an empty flow.
func (f *Fabric) Unreserve(fl *Flow) {
	for _, l := range fl.links[:fl.n] {
		f.put(l, fl.bw)
	}
	*fl = Flow{}
}

// AllocateFlow is Reserve into a record from the fabric's own pool, for
// callers that hold a flow outside any Assignment (the benchmark's direct
// loops and tests). Release it with ReleaseFlow.
func (f *Fabric) AllocateFlow(src, dst *topology.Box, bw units.Bandwidth, policy Policy) (*Flow, error) {
	fl := f.getFlow()
	if err := f.Reserve(fl, src, dst, bw, policy); err != nil {
		f.ReleaseFlow(fl)
		return nil, err
	}
	return fl, nil
}

// getFlow pops a recycled flow record off the free list, or allocates a
// fresh one while the pool warms up.
func (f *Fabric) getFlow() *Flow {
	n := len(f.freeFlows)
	if n == 0 {
		return &Flow{}
	}
	fl := f.freeFlows[n-1]
	f.freeFlows[n-1] = nil
	f.freeFlows = f.freeFlows[:n-1]
	fl.pooled = false
	return fl
}

// ReleaseFlow returns the bandwidth of a flow obtained from AllocateFlow
// and recycles the record into the fabric's pool. Safe on nil;
// releasing the same flow twice is a guarded no-op. The flow must not be
// used after this call.
func (f *Fabric) ReleaseFlow(fl *Flow) {
	if fl == nil || fl.pooled {
		return
	}
	f.Unreserve(fl)
	fl.pooled = true
	f.freeFlows = append(f.freeFlows, fl)
}

func (f *Fabric) take(l *Link, bw units.Bandwidth) {
	if l.free < bw {
		panic(fmt.Sprintf("network: taking %v from %v with only %v free", bw, l, l.free))
	}
	l.free -= bw
	switch Tier(l.tier) {
	case BoxUplink:
		f.intraFree -= bw
		f.rackIntraFree[l.rack] -= bw
		f.boxFree[l.rack][l.box] -= bw
	case RackUplink:
		f.interFree -= bw
	case PodUplink:
		f.podFree -= bw
	}
}

func (f *Fabric) put(l *Link, bw units.Bandwidth) {
	if l.free+bw > units.LinkCapacity {
		panic(fmt.Sprintf("network: returning %v to %v overflows capacity", bw, l))
	}
	l.free += bw
	switch Tier(l.tier) {
	case BoxUplink:
		f.intraFree += bw
		f.rackIntraFree[l.rack] += bw
		f.boxFree[l.rack][l.box] += bw
	case RackUplink:
		f.interFree += bw
	case PodUplink:
		f.podFree += bw
	}
}

// CheckInvariants verifies the aggregate counters against per-link state.
func (f *Fabric) CheckInvariants() error {
	var intraFree, interFree units.Bandwidth
	perRack := make([]units.Bandwidth, len(f.rackIntraFree))
	for ri := range f.boxUplinks {
		for bi, group := range f.boxUplinks[ri] {
			var perBox units.Bandwidth
			for i := range group {
				l := &group[i]
				if err := l.checkFree(); err != nil {
					return err
				}
				perBox += l.free
			}
			if perBox != f.boxFree[ri][bi] {
				return fmt.Errorf("rack %d box %d uplink free %v != link sum %v", ri, bi, f.boxFree[ri][bi], perBox)
			}
			intraFree += perBox
			perRack[ri] += perBox
		}
		for i := range f.rackUplinks[ri] {
			l := &f.rackUplinks[ri][i]
			if err := l.checkFree(); err != nil {
				return err
			}
			interFree += l.free
		}
	}
	if intraFree != f.intraFree {
		return fmt.Errorf("intra free %v != link sum %v", f.intraFree, intraFree)
	}
	if interFree != f.interFree {
		return fmt.Errorf("inter free %v != link sum %v", f.interFree, interFree)
	}
	var podFree units.Bandwidth
	for _, group := range f.podUplinks {
		for i := range group {
			l := &group[i]
			if err := l.checkFree(); err != nil {
				return err
			}
			podFree += l.free
		}
	}
	if podFree != f.podFree {
		return fmt.Errorf("pod free %v != link sum %v", f.podFree, podFree)
	}
	for ri, v := range perRack {
		if v != f.rackIntraFree[ri] {
			return fmt.Errorf("rack %d intra free %v != link sum %v", ri, f.rackIntraFree[ri], v)
		}
	}
	return nil
}

// checkFree reports a free amount outside [0, units.LinkCapacity].
func (l *Link) checkFree() error {
	if l.free < 0 || l.free > units.LinkCapacity {
		return fmt.Errorf("%v free %v out of [0,%v]", l, l.free, units.LinkCapacity)
	}
	return nil
}
