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

// Per-tier admission errors. AllocateFlow fails on the scheduling hot path
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

// Link is one shared optical link with bandwidth accounting.
type Link struct {
	tier   Tier
	rack   int // rack the link belongs to
	box    int // box index within rack (BoxUplink only, else -1)
	index  int // uplink index within its group
	cap    units.Bandwidth
	free   units.Bandwidth
	failed bool // failed links carry no new flows
}

// Tier returns the link's layer.
func (l *Link) Tier() Tier { return l.tier }

// Rack returns the rack the link belongs to.
func (l *Link) Rack() int { return l.rack }

// Box returns the in-rack box index for box uplinks, -1 for rack uplinks.
func (l *Link) Box() int { return l.box }

// Index returns the link's position within its uplink group.
func (l *Link) Index() int { return l.index }

// Capacity returns the link's total bandwidth.
func (l *Link) Capacity() units.Bandwidth { return l.cap }

// Free returns the bandwidth available to new flows: the unallocated
// bandwidth, or zero while the link is failed.
func (l *Link) Free() units.Bandwidth {
	if l.failed {
		return 0
	}
	return l.free
}

// Failed reports whether the link is marked failed (see Fabric.SetLinkFailed).
func (l *Link) Failed() bool { return l.failed }

// String identifies the link for logs and errors.
func (l *Link) String() string {
	if l.tier == BoxUplink {
		return fmt.Sprintf("box-uplink r%d/b%d/#%d", l.rack, l.box, l.index)
	}
	return fmt.Sprintf("rack-uplink r%d/#%d", l.rack, l.index)
}

// Config sizes the fabric. Defaults follow DESIGN.md §3: one brick link
// per brick (dedicated, untracked), 16 uplinks per box and 16 uplinks per
// rack, all at 200 Gb/s, which respects the paper's switch port counts
// (box 64 ports: 8 bricks + 16 uplinks; rack 256 ports: 96 down + 16 up;
// inter-rack 512 ports: 18 racks × 16 = 288).
type Config struct {
	BoxUplinks   int             // uplinks from each box switch to its rack switch
	RackUplinks  int             // uplinks from each rack switch to the tier above
	LinkCapacity units.Bandwidth // capacity of every link

	// RacksPerPod, when positive, switches the fabric to the three-tier
	// structure of Shabka & Zervas (the paper's related-work contrast,
	// its ref [17]): racks group into pods of this size, each pod has a
	// pod switch, and pod switches connect to a core switch through
	// PodUplinks links each. Zero keeps the paper's two-tier fabric.
	RacksPerPod int
	// PodUplinks is the number of pod→core links per pod (three-tier
	// only; default 16 when RacksPerPod > 0 and this is 0).
	PodUplinks int
}

// DefaultConfig returns the link provisioning described in DESIGN.md.
func DefaultConfig() Config {
	return Config{BoxUplinks: 16, RackUplinks: 16, LinkCapacity: units.LinkCapacity}
}

// ThreeTier reports whether the pod tier is enabled.
func (c Config) ThreeTier() bool { return c.RacksPerPod > 0 }

// Validate checks structural sanity.
func (c Config) Validate() error {
	if c.BoxUplinks <= 0 || c.RackUplinks <= 0 {
		return fmt.Errorf("network: uplink counts must be positive (box=%d rack=%d)", c.BoxUplinks, c.RackUplinks)
	}
	if c.LinkCapacity <= 0 {
		return fmt.Errorf("network: link capacity must be positive, got %v", c.LinkCapacity)
	}
	if c.RacksPerPod < 0 || c.PodUplinks < 0 {
		return fmt.Errorf("network: negative pod parameters (%d, %d)", c.RacksPerPod, c.PodUplinks)
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
type Fabric struct {
	cfg         Config
	boxUplinks  [][][]*Link // [rack][boxIndex][uplink]
	rackUplinks [][]*Link   // [rack][uplink]
	podUplinks  [][]*Link   // [pod][uplink], three-tier only

	intraCap, intraFree units.Bandwidth   // aggregate over all box uplinks
	interCap, interFree units.Bandwidth   // aggregate over all rack uplinks
	podCap, podFree     units.Bandwidth   // aggregate over all pod uplinks
	rackIntraFree       []units.Bandwidth // per-rack free over its box uplinks

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

// NumPods returns the number of pods (1 in the two-tier fabric).
func (f *Fabric) NumPods() int {
	if !f.cfg.ThreeTier() {
		return 1
	}
	return len(f.podUplinks)
}

// NewFabric builds the fabric matching a cluster's rack/box layout.
func NewFabric(cl *topology.Cluster, cfg Config) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{cfg: cfg}
	racks := cl.Racks()
	f.boxUplinks = make([][][]*Link, len(racks))
	f.rackUplinks = make([][]*Link, len(racks))
	f.rackIntraFree = make([]units.Bandwidth, len(racks))
	for ri, rack := range racks {
		boxes := rack.Boxes()
		f.boxUplinks[ri] = make([][]*Link, len(boxes))
		for bi := range boxes {
			group := make([]*Link, cfg.BoxUplinks)
			for ui := range group {
				group[ui] = &Link{tier: BoxUplink, rack: ri, box: bi, index: ui, cap: cfg.LinkCapacity, free: cfg.LinkCapacity}
			}
			f.boxUplinks[ri][bi] = group
			f.intraCap += cfg.LinkCapacity * units.Bandwidth(cfg.BoxUplinks)
			f.intraFree += cfg.LinkCapacity * units.Bandwidth(cfg.BoxUplinks)
			f.rackIntraFree[ri] += cfg.LinkCapacity * units.Bandwidth(cfg.BoxUplinks)
		}
		group := make([]*Link, cfg.RackUplinks)
		for ui := range group {
			group[ui] = &Link{tier: RackUplink, rack: ri, box: -1, index: ui, cap: cfg.LinkCapacity, free: cfg.LinkCapacity}
		}
		f.rackUplinks[ri] = group
		f.interCap += cfg.LinkCapacity * units.Bandwidth(cfg.RackUplinks)
		f.interFree += cfg.LinkCapacity * units.Bandwidth(cfg.RackUplinks)
	}
	if cfg.ThreeTier() {
		podUplinks := cfg.PodUplinks
		if podUplinks == 0 {
			podUplinks = 16
		}
		pods := (len(racks) + cfg.RacksPerPod - 1) / cfg.RacksPerPod
		f.podUplinks = make([][]*Link, pods)
		for pi := range f.podUplinks {
			group := make([]*Link, podUplinks)
			for ui := range group {
				group[ui] = &Link{tier: PodUplink, rack: -1, box: pi, index: ui, cap: cfg.LinkCapacity, free: cfg.LinkCapacity}
			}
			f.podUplinks[pi] = group
			f.podCap += cfg.LinkCapacity * units.Bandwidth(podUplinks)
			f.podFree += cfg.LinkCapacity * units.Bandwidth(podUplinks)
		}
	}
	return f, nil
}

// InterPodCapacity returns the aggregate pod-uplink capacity (zero in the
// two-tier fabric).
func (f *Fabric) InterPodCapacity() units.Bandwidth { return f.podCap }

// InterPodFree returns the aggregate free pod-uplink bandwidth.
func (f *Fabric) InterPodFree() units.Bandwidth { return f.podFree }

// InterPodUtilization returns the used fraction of pod-uplink bandwidth.
func (f *Fabric) InterPodUtilization() float64 {
	if f.podCap == 0 {
		return 0
	}
	return float64(f.podCap-f.podFree) / float64(f.podCap)
}

// Config returns the fabric's configuration.
func (f *Fabric) Config() Config { return f.cfg }

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
func (f *Fabric) BoxUplinkFree(box *topology.Box) units.Bandwidth {
	var total units.Bandwidth
	for _, l := range f.boxUplinks[box.Rack()][box.Index()] {
		total += l.free
	}
	return total
}

// pick chooses a link from group under the policy; nil if none fits.
func pick(group []*Link, bw units.Bandwidth, policy Policy) *Link {
	switch policy {
	case MaxAvail:
		var best *Link
		for _, l := range group {
			if !l.failed && l.free >= bw && (best == nil || l.free > best.free) {
				best = l
			}
		}
		return best
	default:
		for _, l := range group {
			if !l.failed && l.free >= bw {
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
// provides — a sched.Assignment embeds its two, AllocateFlow draws one from
// the fabric's pool — and Reserve/Unreserve fill and empty it; an emptied
// flow must not be read.
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

// LinkTraversals returns the number of optical link hops including the
// two dedicated brick links: 4 intra-rack, 6 inter-rack, 8 inter-pod
// (three-tier). Each traversal is one transceiver pair in the power
// model.
func (fl *Flow) LinkTraversals() int {
	switch {
	case fl.interPod:
		return 8
	case fl.interRack:
		return 6
	default:
		return 4
	}
}

// BoxSwitchCrossings returns how many box switches the flow traverses.
func (fl *Flow) BoxSwitchCrossings() int { return 2 }

// RackSwitchCrossings returns how many intra-rack switches the flow
// traverses.
func (fl *Flow) RackSwitchCrossings() int {
	if fl.interRack {
		return 2
	}
	return 1
}

// InterRackSwitchCrossings returns how many top-tier switches the flow
// traverses: on the two-tier fabric, 1 for inter-rack flows (the
// inter-rack switch); on the three-tier fabric, 1 for intra-pod
// inter-rack flows (the pod switch) and 3 for inter-pod flows (two pod
// switches plus the core). The power model treats all of them as the
// large 512-port class.
func (fl *Flow) InterRackSwitchCrossings() int {
	switch {
	case fl.interPod:
		return 3
	case fl.interRack:
		return 1
	default:
		return 0
	}
}

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
	var hops [maxFlowLinks][]*Link
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
			tier := group[0].tier
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
// callers that hold a flow outside any Assignment (examples, the power
// model's tests, the benchmark's direct loops). Release it with
// ReleaseFlow.
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
	if l.failed {
		panic(fmt.Sprintf("network: taking bandwidth from failed %v", l))
	}
	if l.free < bw {
		panic(fmt.Sprintf("network: taking %v from %v with only %v free", bw, l, l.free))
	}
	l.free -= bw
	switch l.tier {
	case BoxUplink:
		f.intraFree -= bw
		f.rackIntraFree[l.rack] -= bw
	case RackUplink:
		f.interFree -= bw
	case PodUplink:
		f.podFree -= bw
	}
}

func (f *Fabric) put(l *Link, bw units.Bandwidth) {
	if l.free+bw > l.cap {
		panic(fmt.Sprintf("network: returning %v to %v overflows capacity", bw, l))
	}
	l.free += bw
	if l.failed {
		// The capacity rejoins the aggregates when the link is restored.
		return
	}
	switch l.tier {
	case BoxUplink:
		f.intraFree += bw
		f.rackIntraFree[l.rack] += bw
	case RackUplink:
		f.interFree += bw
	case PodUplink:
		f.podFree += bw
	}
}

// SetLinkFailed marks a link failed or restores it. A failed link admits
// no new flows and its free bandwidth leaves the aggregate counters;
// flows already on the link keep their reservation and may release
// normally. Toggling is idempotent.
func (f *Fabric) SetLinkFailed(l *Link, failed bool) {
	if l.failed == failed {
		return
	}
	l.failed = failed
	delta := l.free
	if failed {
		delta = -delta
	}
	switch l.tier {
	case BoxUplink:
		f.intraFree += delta
		f.rackIntraFree[l.rack] += delta
	case RackUplink:
		f.interFree += delta
	case PodUplink:
		f.podFree += delta
	}
}

// CheckInvariants verifies the aggregate counters against per-link state.
func (f *Fabric) CheckInvariants() error {
	var intraFree, interFree units.Bandwidth
	perRack := make([]units.Bandwidth, len(f.rackIntraFree))
	for ri := range f.boxUplinks {
		for _, group := range f.boxUplinks[ri] {
			for _, l := range group {
				if l.free < 0 || l.free > l.cap {
					return fmt.Errorf("%v free %v out of [0,%v]", l, l.free, l.cap)
				}
				if !l.failed {
					intraFree += l.free
					perRack[ri] += l.free
				}
			}
		}
		for _, l := range f.rackUplinks[ri] {
			if l.free < 0 || l.free > l.cap {
				return fmt.Errorf("%v free %v out of [0,%v]", l, l.free, l.cap)
			}
			if !l.failed {
				interFree += l.free
			}
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
		for _, l := range group {
			if l.free < 0 || l.free > l.cap {
				return fmt.Errorf("%v free %v out of [0,%v]", l, l.free, l.cap)
			}
			if !l.failed {
				podFree += l.free
			}
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
