// Command smokeclient is the smoke harness's typed campaign client: it
// submits one campaign through internal/client and re-emits the stream
// as NDJSON on stdout, replacing the hand-rolled curl legs of
// daemon_smoke.sh with the same client package the benchmark harness
// and the server tests use. A campaign that ends in an error record
// exits nonzero, so shell harnesses fail loudly.
//
// Usage:
//
//	smokeclient -addr HOST:PORT -experiment NAME [-shots N] [-seed N] [-trace-sample on|off]
//
// With -trace-sample on the campaign is submitted sampled and the
// daemon-assigned trace ID is echoed to stderr as
// "smokeclient: trace <id>", for harnesses to scrape and replay
// against the trace endpoints.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"radqec/internal/client"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8423", "daemon address")
	experiment := flag.String("experiment", "", "experiment to run (required)")
	shots := flag.Int("shots", 0, "shots per point (0 = daemon default)")
	seedV := flag.Uint64("seed", 1, "base RNG seed")
	traceSample := flag.String("trace-sample", "", "trace sampling for this campaign: on, off, or empty (daemon default)")
	flag.Parse()
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "smokeclient: -experiment is required")
		os.Exit(2)
	}

	cl := client.New(*addr, nil)
	seed := *seedV
	stream, err := cl.SubmitCampaign(context.Background(), client.CampaignRequest{
		Experiment:  *experiment,
		Shots:       *shots,
		Seed:        &seed,
		TraceSample: *traceSample,
	}, client.SubmitOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "smokeclient:", err)
		os.Exit(1)
	}
	defer stream.Close()
	fmt.Fprintf(os.Stderr, "smokeclient: campaign %d\n", stream.ID)
	if stream.TraceID != "" {
		fmt.Fprintf(os.Stderr, "smokeclient: trace %s\n", stream.TraceID)
	}

	enc := json.NewEncoder(os.Stdout)
	failed := false
	for {
		rec, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "smokeclient: stream:", err)
			os.Exit(1)
		}
		// Re-emit through the same typed records the server encoded, so
		// downstream comparators see the daemon's exact field set.
		switch {
		case rec.Point != nil:
			err = enc.Encode(rec.Point)
		case rec.Table != nil:
			err = enc.Encode(rec.Table)
		case rec.Err != nil:
			failed = true
			err = enc.Encode(struct {
				Type string `json:"type"`
				client.ErrorRecord
			}{"error", *rec.Err})
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "smokeclient: encode:", err)
			os.Exit(1)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "smokeclient: campaign ended in an error record")
		os.Exit(1)
	}
}
