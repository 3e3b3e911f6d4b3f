// Pipeline: the minimal checked shared-region pipeline. Two units,
// two phases, one declared region: unit 0 multiplies two vectors into
// a staging buffer, the phase boundary publishes it, unit 1 adds a
// bias into the output. No inter-unit synchronization command exists
// in the ISA; the run is deterministic because the cluster linter
// proves the only shared bytes are the declared region and the reader
// runs a phase after the writer (docs/LINT.md). The program set is
// built in examples/programs (see Pipeline there), so the linter and
// tests audit exactly what this binary runs.
package main

import (
	"log"

	"softbrain/examples/programs"
)

func main() {
	ex, err := programs.Pipeline()
	if err != nil {
		log.Fatal(err)
	}
	m, stats, err := ex.Run()
	if err != nil {
		log.Fatal(err)
	}
	ex.Report(m, stats)
}
