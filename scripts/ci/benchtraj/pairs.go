package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// pairCount is how many seed-matched parent/change pairs a judgement rests
// on: `bench -compare -claim` wants nine tenths of at least ten pairs won
// (bench/compare.go, minPairs), and nine tenths of ten is a whole number.
const pairCount = 10

// baseFirstParity is the alternation rule: seeds with seed%2 equal to it
// run the base side first, the others the head side first, so whatever the
// box does between the two runs of a pair falls on each side half the time.
const baseFirstParity = 1

// checkout refuses a base ref ($1) whose benchmark differs from the working
// tree's (the sides would measure different things), exports it into
// $2/base — nothing stays registered if killed — and prints its commit.
const checkout = `set -e
sha=$(git rev-parse --verify "$1^{commit}")
git diff --stat --exit-code "$sha" -- bench BENCHMARK.json >&2 ||
	{ echo "the benchmark differs from $1: a benchmark PR claims nothing" >&2; exit 1; }
git archive --prefix=base/ "$sha" | tar -x -C "$2"
echo "$sha"`

// judge runs the interleaved-pairs procedure (bench/README.md, "Comparing
// two commits") between a base commit and the working tree and writes the
// BENCH_<pr>.json the trajectory reads. There is nothing to set.
type judge struct {
	head string // the change side: the working tree's root
	// bench runs `bash bench/run.sh args...` in dir and returns what that
	// produced: the results file of a run, the printed table of -compare.
	bench func(dir string, args ...string) ([]byte, error)
}

// side is one commit's results.json files merged in the order they ran.
type side struct {
	Host              json.RawMessage   `json:"host"`
	Seconds           float64           `json:"seconds"`
	Runs              []json.RawMessage `json:"runs"`
	attempted, failed int               // operations, summed over Runs
}

// add appends one `bash bench/run.sh args...` in dir. A run without
// results ends the procedure: fewer than pairCount pairs judge nothing.
func (s *side) add(j judge, dir string, args ...string) error {
	var one side
	body, err := j.bench(dir, args...)
	if err == nil {
		err = json.Unmarshal(body, &one)
	}
	for _, r := range one.Runs {
		var ops struct{ Attempted, Failed int }
		if err == nil {
			err = json.Unmarshal(r, &ops)
		}
		s.attempted, s.failed = s.attempted+ops.Attempted, s.failed+ops.Failed
	}
	if err != nil {
		return fmt.Errorf("bench/run.sh %s in %s: %w", strings.Join(args, " "), dir, err)
	}
	s.Host, s.Seconds, s.Runs = one.Host, one.Seconds, append(s.Runs, one.Runs...)
	return nil
}

func (j judge) run(baseRef, outPath, claim string) error {
	tmp, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	prepare := exec.Command("sh", "-c", checkout, "checkout", baseRef, tmp)
	prepare.Dir, prepare.Stderr = j.head, os.Stderr
	sha, err := prepare.Output()
	if err != nil {
		return fmt.Errorf("checking out %s: %w", baseRef, err)
	}
	var file struct {
		PR           int      `json:"pr"`
		ParentCommit string   `json:"parent_commit"`
		Claim        string   `json:"claim"`
		Method       string   `json:"method"`
		Pairs        []any    `json:"pairs"`
		Compare      []string `json:"compare"`
		Parent       side     `json:"parent"`
		Change       side     `json:"change"`
		ParentTraced side     `json:"parent_traced"`
		ChangeTraced side     `json:"change_traced"`
	}
	fmt.Sscanf(filepath.Base(outPath), "BENCH_%d.json", &file.PR)
	file.ParentCommit, file.Claim = strings.TrimSpace(string(sha)), claim
	names, dirs := []string{"parent", "change"}, []string{filepath.Join(tmp, "base"), j.head}
	plain, traced := []*side{&file.Parent, &file.Change}, []*side{&file.ParentTraced, &file.ChangeTraced}

	for seed := 1; seed <= pairCount; seed++ {
		first := (seed + baseFirstParity) % 2 // 0 the parent, 1 the change
		for _, i := range []int{first, 1 - first} {
			if err := plain[i].add(j, dirs[i], "-runs", "1", "-seed", strconv.Itoa(seed)); err != nil {
				return err
			}
		}
		file.Pairs = append(file.Pairs, map[string]any{"seed": seed, "ran_first": names[first]})
	}
	compare := []string{"-compare"}
	if claim != "" {
		compare = append(compare, "-claim", claim)
	}
	file.Method = fmt.Sprintf("go run ./scripts/ci/benchtraj pairs: bash bench/run.sh -runs 1 -seed <seed> for seeds 1 to %d in an export of the parent commit and in the working tree, one pair per seed, odd seeds parent first and even seeds change first; each side's runs merged in seed order and judged by bash bench/run.sh %s parent.json change.json; traced passes: bash bench/run.sh -trace 1 -seed 1 on each side", pairCount, strings.Join(compare, " "))
	for i, dir := range dirs {
		if err := traced[i].add(j, dir, "-trace", "1", "-seed", "1"); err != nil {
			return err
		}
		merged, _ := json.Marshal(plain[i])
		compare = append(compare, filepath.Join(tmp, names[i]+".json"))
		if err := os.WriteFile(compare[len(compare)-1], merged, 0o644); err != nil {
			return err
		}
	}
	table, err := j.bench(j.head, compare...)
	if err != nil {
		return fmt.Errorf("bench/run.sh %s: %w", strings.Join(compare, " "), err)
	}
	file.Compare = strings.Split(strings.TrimRight(string(table), "\n"), "\n")
	body, _ := json.MarshalIndent(file, "", " ")
	if err := os.WriteFile(outPath, append(body, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("%swritten to %s\n", table, outPath)

	// The verdict is bench's; this only turns it into an exit status.
	switch was, is := file.Parent, file.Change; {
	case strings.Contains(string(table), "REGRESSED"):
		return fmt.Errorf("a row reads REGRESSED")
	case claim != "" && !strings.Contains(string(table), "claim met:"):
		return fmt.Errorf("the claim on %s does not read \"claim met\"", claim)
	case is.failed*max(was.attempted, 1) > was.failed*max(is.attempted, 1):
		return fmt.Errorf("the change failed %d of %d operations, the parent %d of %d", is.failed, is.attempted, was.failed, was.attempted)
	}
	return nil
}

// runBench is judge.bench outside tests. A run's product is
// bench/out/results.json, written even when a failed check exits non-zero.
func runBench(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("bash", append([]string{"bench/run.sh"}, args...)...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	if args[0] == "-compare" {
		return cmd.Output()
	}
	results := filepath.Join(dir, "bench", "out", "results.json")
	os.Remove(results) // an earlier run's file must not pass for this one's
	cmd.Stdout = os.Stderr
	_ = cmd.Run() // a failed check: the file below says so
	return os.ReadFile(results)
}
