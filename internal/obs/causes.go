// Package obs is the unified observability layer: a typed metrics
// registry (counters, cycle-bucketed histograms) every machine
// component can register into, plus per-cycle stall-cause attribution
// with a hard conservation invariant — each component's cause counts
// sum exactly to its elapsed cycles. The registry is attached per unit
// and merged deterministically across a cluster, exported as a JSON
// dump, a Figure-14-style bandwidth table, and a Chrome/Perfetto
// trace-event file (docs/OBSERVABILITY.md).
//
// The layer is strictly observational: enabling it never changes a
// single simulated cycle, and a machine with no registry attached pays
// one nil check per cycle and allocates nothing.
package obs

import "fmt"

// Cause classifies where one component's cycle went. Every component
// reports exactly one cause per elapsed cycle, so per-component cause
// counts sum to elapsed cycles — the conservation invariant
// CheckConservation enforces.
type Cause uint8

const (
	// Busy: the component did observable work this cycle (moved bytes,
	// issued a request, fired an instance, retired a command), or holds
	// work in a fixed-latency pipeline that needs no external input.
	Busy Cause = iota
	// BarrierDrain: blocked behind an explicit barrier (or the
	// barrier-like SD_Config quiesce) draining older streams.
	BarrierDrain
	// MSHRFull: a memory request is staged and its destination has
	// credit, but every MSHR is occupied by an outstanding miss.
	MSHRFull
	// PortFull: blocked on a full downstream buffer — a vector port
	// without credit, a full command queue, or a full write buffer.
	PortFull
	// PortEmpty: starved by an empty upstream buffer — a vector port
	// with no data, or an indirect stream with no staged indices.
	PortEmpty
	// DRAMBW: waiting on the memory system — a response in flight or a
	// write completion not yet durable (includes cache-hit latency).
	DRAMBW
	// CauseIdle: no work queued anywhere in the component.
	CauseIdle

	// NumCauses is the size of the taxonomy.
	NumCauses
)

var causeNames = [NumCauses]string{
	"busy", "barrier-drain", "mshr-full", "port-full", "port-empty", "dram-bw", "idle",
}

func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("Cause(%d)", uint8(c))
}

// CauseNames lists the taxonomy in declaration order.
func CauseNames() []string { return causeNames[:] }

// stallPriority ranks causes for components that aggregate several
// streams: a workless cycle is attributed to the most actionable
// blocker across the streams (an MSHR-full stall outranks a starved
// port, which outranks plain idleness).
var stallPriority = [NumCauses]uint8{
	Busy:         7,
	MSHRFull:     6,
	PortFull:     5,
	DRAMBW:       4,
	PortEmpty:    3,
	BarrierDrain: 2,
	CauseIdle:    0,
}

// Worse returns whichever of the two causes ranks higher in the
// stall-priority order.
func Worse(a, b Cause) Cause {
	if stallPriority[a] >= stallPriority[b] {
		return a
	}
	return b
}

// CauseFromName maps a taxonomy name back to its Cause.
func CauseFromName(name string) (Cause, bool) {
	for i, n := range causeNames {
		if n == name {
			return Cause(i), true
		}
	}
	return 0, false
}
