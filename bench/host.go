package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the box a results file was measured on, so that
// numbers from different boxes are never compared silently.
type fingerprint struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	DataFS     string  `json:"data_fs"` // filesystem type of the data directory
	FsyncUSP50 float64 `json:"device.fsync_us_p50"`
	SpinNS     float64 `json:"host.spin_ns"`
}

// journalRecordBytes is the size of one framed placement record in the
// daemon's journal today; the raw device loop appends records of this
// size so its figure is the floor under svc.journal.us_p50.
const journalRecordBytes = 276

// takeFingerprint measures the box. dir is the data directory.
func takeFingerprint(dir string) (fingerprint, error) {
	fsync, err := fsyncP50US(dir, 0)
	if err != nil {
		return fingerprint{}, err
	}
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		DataFS:     fsType(dir),
		FsyncUSP50: fsync,
		SpinNS:     spinNS(),
	}, nil
}

// hostLayers reports the two host figures of the traced pass.
func hostLayers(r *run) {
	r.set("host.spin_ns", spinNS())
	if v, err := fsyncP50US(r.outDir, 0); err == nil {
		r.set("device.fsync_us_p50", v)
	} else {
		r.notef("device.fsync_us_p50 not measured: %v", err)
	}
}

// spinSink keeps the calibration loop's result live.
var spinSink uint64

// spinNS times a fixed chain of dependent integer multiply-adds and
// returns nanoseconds per step: a number that moves with clock speed and
// with whatever else the box is running, and with nothing in this
// repository.
func spinNS() float64 {
	const steps = 1 << 24
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		x := uint64(rep + 1)
		start := time.Now()
		for i := 0; i < steps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink += x
		ns := float64(time.Since(start).Nanoseconds()) / steps
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// nominalSpinNS is what spinNS reads on the box the benchmark was defined
// on when that box runs at full clock. CPU-bound timings are reported at
// this clock (see clockProbe).
const nominalSpinNS = 1.40

// clockProbe samples the processor's speed while a workload runs. The
// box's clock moves by a quarter between spells lasting minutes (see
// README.md, "Known noise"), and every instruction of the program moves
// with it, so a CPU-bound timing is multiplied by scale(): the ratio of
// the nominal spin time to the one measured beside the work. The spin
// loop is the harness's own code and touches no memory, so nothing in
// the repository can move it.
type clockProbe struct {
	ns      []float64
	buildMS []float64 // see buildProbe
}

// clock is the process's probe: a process runs one workload.
var clock clockProbe

// sample times one short spin (about a third of a millisecond).
func (c *clockProbe) sample() {
	const steps = 1 << 18
	x := uint64(len(c.ns) + 1)
	start := time.Now()
	for i := 0; i < steps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink += x
	c.ns = append(c.ns, float64(time.Since(start).Nanoseconds())/steps)
}

// spinNS is the probe's reading: the tenth percentile of the samples, so
// that a sample the hypervisor interrupted does not count, nor a single
// lucky one.
func (c *clockProbe) spinNS() float64 {
	if len(c.ns) == 0 {
		c.sample()
	}
	s := append([]float64(nil), c.ns...)
	sort.Float64s(s)
	return quantile(s, 10)
}

// scale is the factor that takes a measured CPU-bound time to the
// nominal clock.
func (c *clockProbe) scale() float64 { return nominalSpinNS / c.spinNS() }

// sampleBuild takes one build probe (about ten milliseconds).
func (c *clockProbe) sampleBuild() { c.buildMS = append(c.buildMS, buildProbe()) }

// buildMSQ1 is the build probe's reading: the lower quartile of the
// samples.
func (c *clockProbe) buildMSQ1() float64 {
	if len(c.buildMS) == 0 {
		c.sampleBuild()
	}
	s := append([]float64(nil), c.buildMS...)
	sort.Float64s(s)
	return quantile(s, 25)
}

// buildScale is the factor that takes a measured set-up time to the
// nominal box.
func (c *clockProbe) buildScale() float64 {
	return nominalBuildMS / c.buildMSQ1()
}

// nominalBuildMS is what buildProbe reads on the box the benchmark was
// defined on in a quiet spell.
const nominalBuildMS = 12.0

// buildNode is what buildProbe allocates.
type buildNode struct {
	next *buildNode
	vals [6]int64
}

// buildSink keeps the probe's result live.
var buildSink int64

// buildProbe is the reference for set-up time: it allocates a hundred
// thousand small linked objects, indexes a quarter of them in a map and
// walks them in random order, which is what building a datacenter or
// opening a data directory does to the allocator, the collector and the
// memory system, and returns the milliseconds that took. When the box's
// other tenants load the memory system, such work slows by a third or
// more for minutes on end while the spin loop reads the same (README.md,
// "Known noise"), and a set-up of up to a second cannot be cut into laps
// from outside. So the probe is sampled beside every set-up and every
// round (clockProbe.sampleBuild), and setup_s is multiplied by the ratio
// of nominalBuildMS to the run's lower-quartile sample — the same
// statistic the set-ups themselves are reported by. The probe is the
// harness's own code; nothing in the repository can move it.
func buildProbe() float64 {
	const n = 100000
	start := time.Now()
	nodes := make([]*buildNode, 0, n)
	index := make(map[int]*buildNode, n/4)
	var head *buildNode
	x := uint64(99)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		nd := &buildNode{next: head}
		nd.vals[0] = int64(x >> 40)
		head = nd
		nodes = append(nodes, nd)
		if i%4 == 0 {
			index[int(x>>44)] = nd
		}
	}
	var sum int64
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		sum += nodes[int(x>>33)%n].vals[0]
	}
	for nd := head; nd != nil; nd = nd.next {
		sum += nd.vals[0]
	}
	buildSink += sum + int64(len(index))
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// fsyncP50US appends journal-sized records to a scratch file in dir,
// syncing after each as the journal does, and returns the median cost of
// one append in microseconds. A positive gap spins that long before each
// append: a device left idle between requests, as a request-response
// service leaves it, answers the next flush more slowly than one flushed
// back to back.
func fsyncP50US(dir string, gap time.Duration) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	rec := make([]byte, journalRecordBytes)
	var us []float64
	for i := 0; i < 500; i++ {
		for idle := time.Now(); time.Since(idle) < gap; {
		}
		start := time.Now()
		if _, err := f.Write(rec); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(us), nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
