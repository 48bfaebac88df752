// Command finemoe-trace generates and inspects serving workloads: offline
// prompt populations (synthetic LMSYS-Chat-1M / ShareGPT) and Azure-style
// online arrival traces.
//
// Usage:
//
//	finemoe-trace -dataset lmsys -n 256 -summary
//	finemoe-trace -dataset sharegpt -n 256 -online -rate 2.91 -csv
//	finemoe-trace -dataset lmsys -online -n 256 -out trace.json
//	finemoe-trace -in trace.json -summary
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"finemoe/internal/metrics"
	"finemoe/internal/workload"
)

func main() {
	var (
		dsArg   = flag.String("dataset", "lmsys", "dataset: lmsys|sharegpt")
		n       = flag.Int("n", 256, "number of requests")
		seed    = flag.Uint64("seed", 42, "sampling seed")
		dim     = flag.Int("dim", 64, "semantic embedding dimension")
		online  = flag.Bool("online", false, "attach Poisson arrival times")
		rate    = flag.Float64("rate", 2.91, "online arrival rate (req/s)")
		fixed   = flag.Bool("fixed", false, "pin lengths to dataset means")
		summary = flag.Bool("summary", false, "print population summary only")
		csv     = flag.Bool("csv", false, "emit per-request CSV")
		out     = flag.String("out", "", "write the trace as JSON to this file")
		in      = flag.String("in", "", "read a JSON trace instead of sampling")
	)
	flag.Parse()

	var ds workload.Dataset
	switch strings.ToLower(*dsArg) {
	case "lmsys":
		ds = workload.LMSYSChat1M()
	case "sharegpt":
		ds = workload.ShareGPT()
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *dsArg)
		os.Exit(2)
	}

	var reqs []workload.Request
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		loadedDS, loaded, err := workload.ReadTrace(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ds, reqs = loadedDS, loaded
	} else if *online {
		ap, err := workload.ArrivalByName("poisson", *rate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		reqs = workload.OnlineTrace(ds, *dim, workload.OnlineOptions{Arrivals: ap, N: *n, Seed: *seed})
	} else {
		reqs = ds.Sample(workload.Options{Dim: *dim, N: *n, Seed: *seed, FixedLengths: *fixed})
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := workload.WriteTrace(f, ds, *dim, reqs); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d requests to %s\n", len(reqs), *out)
	}

	if *summary || !*csv {
		s := workload.Summarize(reqs)
		t := metrics.NewTable("dataset", "requests", "topics", "mean_in", "mean_out", "rate_rps")
		t.Row(ds.Name, s.N, s.Topics, s.MeanInput, s.MeanOut, s.RateRPS)
		fmt.Print(t.String())
		if *summary {
			return
		}
		fmt.Println()
	}
	if *csv {
		t := metrics.NewTable("id", "topic", "input_tokens", "output_tokens", "arrival_ms")
		for _, q := range reqs {
			t.Row(q.ID, q.Topic, q.InputTokens, q.OutputTokens, q.ArrivalMS)
		}
		fmt.Print(t.CSV())
	}
}
