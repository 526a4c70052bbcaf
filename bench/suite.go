package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// resultsFile is what a run of every workload writes: the box it ran on
// and one record per child process.
type resultsFile struct {
	Host    fingerprint `json:"host"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// runRecord is one child's result line plus what identifies the run.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	WallS    float64 `json:"wall_s"` // the whole child process, set-up and checks included
	resultLine
}

// runAll runs every workload runs times, each run in a fresh child
// process of this binary (so peak RSS and set-up time are the workload's
// own), passes the children's reports through, and writes the results
// file. Run i uses seed+i.
func runAll(seed int64, seconds float64, trace bool, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := benchDir()
	if err != nil {
		return err
	}
	outDir := filepath.Join(dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	host, err := takeFingerprint(outDir)
	if err != nil {
		return err
	}
	fmt.Printf("host: %d cpus (GOMAXPROCS %d), %s, %s, data on %s; probes: fsync p50 %.1f us, spin %.3f ns\n",
		host.NProc, host.GOMAXPROCS, host.CPUModel, host.GoVersion, host.DataFS, host.FsyncUSP50, host.SpinNS)
	file := resultsFile{Host: host, Seconds: seconds}
	failed := 0
	t := 0
	if trace {
		t = 1
	}
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			s := seed + int64(i)
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(t))
			var stdout bytes.Buffer
			cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
			cmd.Stderr = os.Stderr
			start := time.Now()
			runErr := cmd.Run()
			rec := runRecord{Workload: w.Name, Seed: s, Trace: trace, WallS: time.Since(start).Seconds()}
			line, err := lastLine(stdout.Bytes())
			if err == nil {
				err = json.Unmarshal(line, &rec.resultLine)
			}
			if err != nil {
				return fmt.Errorf("%s seed %d printed no result (%v): %w", w.Name, s, runErr, err)
			}
			if runErr != nil || !rec.Correct {
				failed++
			}
			file.Runs = append(file.Runs, rec)
		}
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", out)
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed their correctness check", failed, len(file.Runs))
	}
	return nil
}

func lastLine(out []byte) ([]byte, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if last == nil {
		return nil, fmt.Errorf("no output")
	}
	return last, sc.Err()
}

// updateGolden recomputes the stored reference — one plain round of every
// simulator workload for every seed in goldenSeeds — and writes it.
func updateGolden(path string) error {
	g := golden{}
	for _, w := range workloads {
		if w.sim == nil {
			continue
		}
		g[w.Name] = map[string]goldenEntry{}
		for _, seed := range goldenSeeds {
			st, err := w.sim(seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			cells, err := st.round(false, false)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			e := goldenEntry{Cells: map[string]string{}, Exact: exactOf(cells)}
			for _, c := range cells {
				e.Cells[c.name] = c.digest
			}
			g[w.Name][strconv.FormatInt(seed, 10)] = e
			fmt.Printf("golden: %s seed %d: %d cells\n", w.Name, seed, len(cells))
		}
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
