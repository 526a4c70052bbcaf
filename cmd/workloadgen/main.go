// Command workloadgen is the load generator for the risasvc daemon: it
// generates one of the paper's workloads and sends it to the daemon as
// HTTP /place requests, with capped-backoff retries against backpressure
// and a saturation summary at the end.
//
// Usage:
//
//	workloadgen -url http://localhost:8080 -count 1500 -rate 300
//	workloadgen -url http://localhost:8080 -kind azure-3000 -workers 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/url"
	"os"

	"risa/internal/workload"
)

// maxRate is the fastest pace -rate can ask for: one request a
// nanosecond, the ticker's resolution.
const maxRate = 1e9

func main() {
	kind, opts, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return // -h/-help: usage already printed, a clean exit
	}
	var tr *workload.Trace
	if err == nil {
		tr, err = generate(kind, opts.seed)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "workloadgen: %v\n", err)
		os.Exit(2)
	}
	runClient(tr, opts)
}

// parseArgs reads the flags and refuses, naming the flag, any value the
// client cannot send: nothing reaches the daemon from a bad command line.
func parseArgs(args []string) (kind string, o clientOptions, err error) {
	fs := flag.NewFlagSet("workloadgen", flag.ContinueOnError)
	fs.StringVar(&kind, "kind", "synthetic", "workload: synthetic, azure-3000, azure-5000, azure-7500")
	fs.Int64Var(&o.seed, "seed", 1, "generation seed (also seeds the retry jitter)")
	fs.StringVar(&o.url, "url", "", "risasvc base URL, e.g. http://localhost:8080 (required)")
	fs.IntVar(&o.count, "count", 0, "number of VMs to send (0 = whole trace)")
	fs.Float64Var(&o.rate, "rate", 0, "offered load in requests/s (0 = closed loop)")
	fs.IntVar(&o.workers, "workers", 1, "concurrent senders (>1 forfeits deterministic order; saturation runs only)")
	fs.Int64Var(&o.deadlineMS, "deadline-ms", 0, "per-request queue deadline forwarded to the daemon")
	if err := fs.Parse(args); err != nil {
		return kind, o, err
	}
	if fs.NArg() > 0 {
		return kind, o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if u, perr := url.Parse(o.url); perr != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return kind, o, fmt.Errorf("-url must be an absolute http(s) URL, got %q", o.url)
	}
	if o.count < 0 {
		return kind, o, fmt.Errorf("-count must be non-negative, got %d", o.count)
	}
	if !(o.rate >= 0 && o.rate <= maxRate) {
		return kind, o, fmt.Errorf("-rate must be in [0, %g], got %g", float64(maxRate), o.rate)
	}
	if o.workers < 1 {
		return kind, o, fmt.Errorf("-workers must be at least 1, got %d", o.workers)
	}
	return kind, o, nil
}

func generate(kind string, seed int64) (*workload.Trace, error) {
	switch kind {
	case "synthetic":
		cfg := workload.DefaultSyntheticConfig()
		cfg.Seed = seed
		return workload.Synthetic(cfg)
	case "azure-3000":
		return workload.AzureLike(workload.AzureConfig{Subset: workload.Azure3000, Seed: seed})
	case "azure-5000":
		return workload.AzureLike(workload.AzureConfig{Subset: workload.Azure5000, Seed: seed})
	case "azure-7500":
		return workload.AzureLike(workload.AzureConfig{Subset: workload.Azure7500, Seed: seed})
	default:
		return nil, fmt.Errorf("unknown workload kind %q", kind)
	}
}
