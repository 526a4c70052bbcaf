package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// spyBench stands in for `bash bench/run.sh`: it records which side was
// asked to run what, answers a run with a canned one-run results.json and
// -compare with a canned table, keeping the two merged files it was given.
type spyBench struct {
	calls        []string // "<side>: <args>"
	table        string
	changeFailed int // failed operations per run of the change side
	failAt       int // the call that returns an error (0: none)
	merged       [2][]byte
}

func (s *spyBench) bench(dir string, args ...string) ([]byte, error) {
	side := "change"
	if filepath.Base(dir) == "base" {
		side = "parent"
	}
	s.calls = append(s.calls, side+": "+strings.Join(args, " "))
	if len(s.calls) == s.failAt {
		return nil, errors.New("no results")
	}
	if args[0] == "-compare" {
		for i, path := range args[len(args)-2:] {
			s.merged[i], _ = os.ReadFile(path)
		}
		return []byte(s.table), nil
	}
	seed, rate, failed := args[len(args)-1], 1000, 0 // setup_s stands in for a metric
	if side == "change" {
		rate, failed = 2000, s.changeFailed
	}
	return []byte(fmt.Sprintf(`{"host":{"nproc":2},"seconds":25,"runs":[{"workload":"svc-place-2c","seed":%s,"trace":%t,"wall_s":26.5,
		"correct":%t,"attempted":100,"failed":%d,"metrics":{"setup_s":{"value":%d,"unit":"s"}}}]}`,
		seed, args[0] == "-trace", failed == 0, failed, rate)), nil
}

// newRepo commits a stand-in benchmark into a fresh repository and returns
// its root and HEAD.
func newRepo(t *testing.T) (root, head string) {
	t.Helper()
	root = t.TempDir()
	git := func(args ...string) string {
		cmd := exec.Command("git", append([]string{"-C", root, "-c", "user.name=t", "-c", "user.email=t@t"}, args...)...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v: %s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	os.Mkdir(filepath.Join(root, "bench"), 0o755)
	os.WriteFile(filepath.Join(root, "bench", "run.sh"), []byte("exit 1\n"), 0o644)
	os.WriteFile(filepath.Join(root, "BENCHMARK.json"), []byte(`{"end_to_end":[{"name":"setup_s","better":"higher"}]}`), 0o644)
	git("init", "-q")
	git("add", ".")
	git("commit", "-q", "-m", "base")
	return root, git("rev-parse", "HEAD")
}

const cleanTable = "old host: 2 cpus\nnew host: 2 cpus\nworkload  metric  verdict\nsvc-place-2c  setup_s  ok\n"

// TestPairsProcedure pins the procedure: which side runs which seed in
// which order, the traced passes, each side's merge in seed order, and a
// written file of BENCH_20.json's shape that the trajectory reads back.
func TestPairsProcedure(t *testing.T) {
	for _, claim := range []string{"", "svc-place-2c/setup_s"} {
		root, head := newRepo(t)
		spy := &spyBench{table: cleanTable + "svc-place-2c  setup_s  ok; claim met: won 10 of 10 pairs, median better by 100.0%\n"}
		out := filepath.Join(root, "BENCH_22.json")
		if err := (judge{head: root, bench: spy.bench}).run("HEAD", out, claim); err != nil {
			t.Fatalf("claim %q: %v", claim, err)
		}

		var want []string
		for seed := 1; seed <= 10; seed++ {
			order := []string{"parent", "change"}
			if seed%2 == 0 {
				order = []string{"change", "parent"}
			}
			for _, side := range order {
				want = append(want, fmt.Sprintf("%s: -runs 1 -seed %d", side, seed))
			}
		}
		want = append(want, "parent: -trace 1 -seed 1", "change: -trace 1 -seed 1")
		if got := spy.calls[:len(spy.calls)-1]; !reflect.DeepEqual(got, want) {
			t.Errorf("runs\n got %q\nwant %q", got, want)
		}
		compare := "change: -compare "
		if claim != "" {
			compare += "-claim " + claim + " "
		}
		if last := spy.calls[len(spy.calls)-1]; !strings.HasPrefix(last, compare+os.TempDir()) || !strings.HasSuffix(last, "change.json") {
			t.Errorf("last call %q, want %s<tmp>/parent.json <tmp>/change.json", last, compare)
		}
		for i, rate := range []float64{1000, 2000} {
			var merged results
			if err := json.Unmarshal(spy.merged[i], &merged); err != nil || len(merged.Runs) != 10 {
				t.Fatalf("side %d: %d merged runs (%v), want 10", i, len(merged.Runs), err)
			}
			for k, r := range merged.Runs {
				if r.Seed != int64(k+1) || r.Trace || r.Metrics["setup_s"].Value != rate {
					t.Errorf("side %d run %d: seed %d trace %v setup_s %v", i, k, r.Seed, r.Trace, r.Metrics["setup_s"].Value)
				}
			}
		}

		var file map[string]json.RawMessage
		body, _ := os.ReadFile(out)
		if err := json.Unmarshal(body, &file); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"pr", "parent_commit", "claim", "method", "pairs", "compare", "parent", "change", "parent_traced", "change_traced"} {
			if _, ok := file[key]; !ok {
				t.Errorf("%s: no %q", out, key)
			}
		}
		var pairs []struct {
			Seed     int
			RanFirst string `json:"ran_first"`
		}
		json.Unmarshal(file["pairs"], &pairs)
		if len(file) != 10 || len(pairs) != 10 || pairs[0].RanFirst != "parent" || pairs[9].Seed != 10 || pairs[9].RanFirst != "change" {
			t.Errorf("%d keys, pairs %+v", len(file), pairs)
		}
		if got := string(file["parent_commit"]); got != `"`+head+`"` {
			t.Errorf("parent_commit %s, want %s", got, head)
		}
		if !bytes.Contains(file["parent_traced"], []byte(`"wall_s": 26.5`)) || !bytes.Contains(file["parent_traced"], []byte(`"trace": true`)) {
			t.Errorf("parent_traced does not carry the traced run as written: %s", file["parent_traced"])
		}

		var row bytes.Buffer
		if err := trajectory(&row, root); err != nil {
			t.Fatal(err)
		}
		wantRow := "22   (no claim)"
		if claim != "" {
			wantRow = "22   svc-place-2c/setup_s                   1000         2000  +100.0%  10 of 10"
		}
		if !strings.Contains(row.String(), wantRow) {
			t.Errorf("trajectory of the written file:\n%swant a row %q", row.String(), wantRow)
		}
	}
}

// TestPairsExitStatus pins what turns into a non-zero exit: bench's
// verdict, an operation-failure increase, a run without results, and a
// benchmark that differs between the sides.
func TestPairsExitStatus(t *testing.T) {
	const claim = "svc-place-2c/setup_s"
	for _, c := range []struct {
		name, claim, row string
		changeFailed     int
		failAt           int
		editBench        bool
		wantErr          string
		wantCalls        int
	}{
		{name: "clean table", wantCalls: 23},
		{name: "unresolved row", row: "svc-place-2c  setup_s  unresolved\n", wantCalls: 23},
		{name: "regressed row", row: "svc-place-2c  place_per_s  REGRESSED (every run)\n", wantErr: "REGRESSED", wantCalls: 23},
		{name: "claim met", claim: claim, row: "svc-place-2c  setup_s  ok; claim met: won 10 of 10 pairs\n", wantCalls: 23},
		{name: "claim NOT met", claim: claim, row: "svc-place-2c  setup_s  ok; claim NOT met: won 8 of 10 pairs, need nine tenths\n", wantErr: "claim met", wantCalls: 23},
		{name: "claim not judged", claim: claim, row: "svc-place-2c  setup_s  ok; claim not judged: 9 pairs, need 10\n", wantErr: "claim met", wantCalls: 23},
		{name: "more failed operations", changeFailed: 1, wantErr: "failed 10 of 1000 operations", wantCalls: 23},
		{name: "a run without results", failAt: 5, wantErr: "-seed 3", wantCalls: 5},
		{name: "benchmark differs", editBench: true, wantErr: "checking out HEAD", wantCalls: 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			root, _ := newRepo(t)
			if c.editBench {
				os.WriteFile(filepath.Join(root, "bench", "run.sh"), []byte("exit 2\n"), 0o644)
			}
			spy := &spyBench{table: cleanTable + c.row, changeFailed: c.changeFailed, failAt: c.failAt}
			err := judge{head: root, bench: spy.bench}.run("HEAD", filepath.Join(root, "BENCH_22.json"), c.claim)
			if c.wantErr == "" && err != nil || c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
				t.Errorf("error %v, want %q", err, c.wantErr)
			}
			if len(spy.calls) != c.wantCalls {
				t.Errorf("%d bench calls, want %d: %q", len(spy.calls), c.wantCalls, spy.calls)
			}
		})
	}
}
