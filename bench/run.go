package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// procStart approximates process start: package initialisation runs
// before main, a few hundred microseconds after exec.
var procStart = time.Now()

// workloadDef is one named workload and the reason it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(r *run) error
	// sim is set for simulator workloads: their set-up alone, which
	// -update-golden uses to compute the stored reference.
	sim func(seed int64) (simState, error)
	// extra marks a workload the harness runs (by name, and with the others
	// when none is named) but BENCHMARK.json does not list, because its
	// runs of one commit do not agree closely enough for the driver. It is
	// for interleaved comparisons (README.md, "Comparing two commits").
	extra bool
}

// run is one workload execution in this process: its parameters, and the
// metrics, notes and failure counts it accumulates.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // scratch and output directory, bench/out
	gold     golden

	metrics map[string]float64
	// scaled marks the metrics result() takes to the nominal box with a
	// probe's reading over the whole run.
	scaled    map[string]scaling
	attempted int
	failed    int
	notes     []string
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// scaling says which probe a metric is read against (see clockProbe).
type scaling int

const (
	asMeasured scaling = iota
	lapTime            // a lap timing: scales with the clock
	lapRate            // a rate made of lap timings
	buildTime          // set-up: scales with the build probe
)

// setScaled reports v as measured; result() takes it to the nominal box.
func (r *run) setScaled(name string, v float64, by scaling) {
	if r.scaled == nil {
		r.scaled = map[string]scaling{}
	}
	r.metrics[name], r.scaled[name] = v, by
}

// dataDir names a scratch data directory of this process; the process id
// keeps two runs started in one checkout from sharing a journal.
func (r *run) dataDir(role string) string {
	return filepath.Join(r.outDir, fmt.Sprintf("data-%s-%s-%d", r.workload, role, os.Getpid()))
}

// writeTrace writes the traced pass's span file and says where.
func (r *run) writeTrace(cells []traceCell, what string) error {
	path := filepath.Join(r.outDir, "trace-"+r.workload+".json")
	if err := writeTraceFile(path, traceFile{Workload: r.workload, Seed: r.seed, Cells: cells}); err != nil {
		return err
	}
	r.notef("spans of %s written to %s", what, path)
	return nil
}

// notef records one line for the human-readable report.
func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// failf counts n failed operations and says why.
func (r *run) failf(n int, format string, args ...any) {
	r.failed += n
	r.notef("FAILED: "+format, args...)
}

// setupDone reports set-up time: what the process spent before the
// workload's own set-up began, plus the lower quartile of the repeated
// set-ups (the fastest of three when they take a second each): a single
// set-up is too short to be steady, and one in two meets an interruption
// or a slow flush.
func (r *run) setupDone(before time.Duration, setups []float64) {
	sort.Float64s(setups)
	r.setScaled("setup_s", before.Seconds()+quantile(setups, 25), buildTime)
}

// repeatTimed runs once until it has been seen three times and for a
// second in total, probes included (at most 200 times), and returns each
// run's seconds: a 2 ms operation needs many repeats to read steadily, a
// 1 s operation cannot afford them. Set-up is measured this way, with a
// build probe beside every repeat. once returns how long the
// part of it that counts took; releasing what the previous call built is
// its business and not part of that time.
func repeatTimed(once func() (time.Duration, error)) ([]float64, error) {
	var secs []float64
	for start := time.Now(); len(secs) < 3 || time.Since(start) < time.Second && len(secs) < 200; {
		clock.sample()
		clock.sampleBuild()
		d, err := once()
		if err != nil {
			return nil, err
		}
		secs = append(secs, d.Seconds())
	}
	return secs, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the reported metrics: every end-to-end metric with
// tracing off, every per-layer metric with it on. An end-to-end metric a
// workload failed to set is an error in the harness, not a zero.
func (r *run) result() (resultLine, error) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	scale, buildScale := clock.scale(), clock.buildScale()
	if !r.trace {
		r.notef("clock: spin %.4f ns over %d samples, nominal %.2f; lap timings are multiplied by %.4f", clock.spinNS(), len(clock.ns), nominalSpinNS, scale)
		r.notef("build probe: lower quartile %.3f ms over %d samples, nominal %.1f; set-up is multiplied by %.4f", clock.buildMSQ1(), len(clock.buildMS), nominalBuildMS, buildScale)
	}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok && !r.trace {
			return out, fmt.Errorf("workload %s did not report %s", r.workload, d.Name)
		}
		switch r.scaled[d.Name] {
		case lapTime:
			v *= scale
		case lapRate:
			v /= scale
		case buildTime:
			v *= buildScale
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("workload %s attempted nothing", r.workload)
	}
	return out, nil
}

// report prints every metric by name with its unit, then the notes, then
// the result line.
func (r *run) report(w io.Writer, res resultLine) error {
	mode := "end-to-end, tracing off"
	if r.trace {
		mode = "per-layer, traced pass"
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  (%s)\n", r.workload, r.seed, r.seconds, mode)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %16s %s\n", n, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
