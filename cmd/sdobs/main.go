// Command sdobs inspects the observability artifacts sdsim produces:
// it validates Chrome/Perfetto trace-event files against the format
// contract, checks the stall-attribution conservation invariant on
// metrics dumps, and renders the bandwidth table from a dump offline.
//
// Usage:
//
//	sdobs -validate-trace out.trace.json
//	sdobs -check out.json
//	sdobs -bw out.json [-peak 16]
//	sdobs -prom out.json        # Prometheus text exposition to stdout
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"softbrain/internal/obs"
)

func main() {
	validate := flag.String("validate-trace", "", "validate a Chrome/Perfetto trace-event JSON file")
	check := flag.String("check", "", "check the conservation invariant on a metrics dump")
	bw := flag.String("bw", "", "render the bandwidth table from a metrics dump")
	peak := flag.Float64("peak", 16, "DRAM line rate in bytes/cycle (line bytes / miss interval) for the -bw table")
	prom := flag.String("prom", "", "render a metrics dump as Prometheus text exposition")
	flag.Parse()

	ran := false
	if *validate != "" {
		ran = true
		data, err := os.ReadFile(*validate)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.ValidateTrace(data); err != nil {
			log.Fatalf("sdobs: %s: %v", *validate, err)
		}
		fmt.Printf("%s: valid trace\n", *validate)
	}
	if *check != "" {
		ran = true
		d := readDump(*check)
		if err := obs.CheckConservation(d); err != nil {
			log.Fatalf("sdobs: %s: conservation violated: %v", *check, err)
		}
		fmt.Printf("%s: conservation holds (%d unit(s), %d cycles)\n", *check, len(d.Units), d.Total.Cycles)
	}
	if *bw != "" {
		ran = true
		fmt.Print(obs.BandwidthTable(readDump(*bw), *peak))
	}
	if *prom != "" {
		ran = true
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf, readDump(*prom)); err != nil {
			log.Fatalf("sdobs: %s: %v", *prom, err)
		}
		// The exporter's output must pass its own scrape lint before it
		// reaches stdout — same gate the sdserve /metrics endpoint uses.
		if err := obs.CheckExposition(buf.Bytes()); err != nil {
			log.Fatalf("sdobs: %s: exposition lint: %v", *prom, err)
		}
		os.Stdout.Write(buf.Bytes())
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func readDump(path string) obs.Dump {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var d obs.Dump
	if err := json.Unmarshal(data, &d); err != nil {
		log.Fatalf("sdobs: parsing %s: %v", path, err)
	}
	return d
}
