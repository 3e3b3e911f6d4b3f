package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sync"

	"softbrain/internal/cgra"
	"softbrain/internal/dfg"
	"softbrain/internal/isa"
	"softbrain/internal/sched"
)

// ConfigSpace is the memory region where configuration bitstreams live;
// workload data must stay below it. A bitstream's address is a content
// address: a hash of its bytes picks one of the configSlots 4 KiB
// slots from ConfigSpace up to 4 GiB, so rebuilding a program
// reproduces it byte for byte and equal bitstreams share a slot.
// Programs sharing one memory image (the multi-unit cluster) must not
// hold different bitstreams at one address; Cluster runs refuse such a
// program set.
const ConfigSpace uint64 = 0xC000_0000

// ConfigSlotBytes is the space reserved per configuration bitstream.
const ConfigSlotBytes = 0x1000

const configSlots = (1<<32 - ConfigSpace) / ConfigSlotBytes

// TraceOp is one step of the control program: either a stream command or
// a span of host computation (address arithmetic, loop control) measured
// in core cycles.
type TraceOp struct {
	Cmd   isa.Command // nil for a pure delay
	Delay uint64
}

// Program is a stream-dataflow program: CGRA configurations plus the
// command trace the control core replays. Build one with the emitter
// methods, which resolve DFG port names against the active configuration
// exactly as the paper's wrapper API does; the first error sticks and is
// reported by Err or at load time.
//
// The first Machine.Load seals the program: its trace round-trips
// through the binary ISA once, and every later Load reuses the result,
// so machines on several goroutines may load and run one program at
// the same time. Emit, Delay and Configure reopen the seal. Assigning
// to Trace directly after a Load is unsupported: clone the program and
// edit the copy instead.
type Program struct {
	Name string
	// Configs holds the encoded configuration bitstream per memory
	// address; Machine.Load writes them into the memory image, and the
	// machine decodes whatever SD_Config actually reads back.
	Configs map[uint64][]byte
	Trace   []TraceOp

	cur *cgra.Schedule
	err error

	sealMu  sync.Mutex
	sealed  bool  // the trace has round-tripped since its last emitter edit
	sealErr error // the round trip's outcome, returned by every Load
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program {
	return &Program{Name: name, Configs: map[uint64][]byte{}}
}

// Err returns the first construction error.
func (p *Program) Err() error { return p.err }

func (p *Program) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("program %s: %s", p.Name, fmt.Sprintf(format, args...))
	}
}

// Emit appends a raw command, checking that it is encodable in the ISA.
func (p *Program) Emit(cmd isa.Command) {
	if _, err := isa.EncodeCommand(cmd); err != nil {
		p.fail("%v", err)
		return
	}
	p.unseal()
	p.Trace = append(p.Trace, TraceOp{Cmd: cmd})
}

// Delay models host-side computation between commands.
func (p *Program) Delay(cycles uint64) {
	if cycles > 0 {
		p.unseal()
		p.Trace = append(p.Trace, TraceOp{Delay: cycles})
	}
}

// Configure serializes the schedule into its configuration bitstream,
// registers it at its content address (probing past slots this program
// fills with other bytes), emits the SD_Config command for it, and
// makes it the active configuration for port-name resolution.
func (p *Program) Configure(s *cgra.Schedule) {
	blob := cgra.EncodeConfig(s)
	if len(blob) > ConfigSlotBytes {
		p.fail("configuration bitstream of %s is %d bytes; slot is %d", s.Graph.Name, len(blob), ConfigSlotBytes)
		return
	}
	h := fnv.New64a()
	h.Write(blob)
	var addr uint64
	for slot := h.Sum64() % configSlots; ; slot = (slot + 1) % configSlots {
		addr = ConfigSpace + slot*ConfigSlotBytes
		if old, taken := p.Configs[addr]; !taken || bytes.Equal(old, blob) {
			break
		}
	}
	p.Configs[addr] = blob
	p.cur = s
	p.Emit(isa.Config{Addr: addr, Size: uint64(len(blob))})
}

// CompileAndConfigure schedules g onto the fabric and Configures the
// result, returning the schedule for inspection.
func (p *Program) CompileAndConfigure(f *cgra.Fabric, g *dfg.Graph) *cgra.Schedule {
	s, err := sched.Schedule(f, g)
	if err != nil {
		p.fail("%v", err)
		return nil
	}
	p.Configure(s)
	return s
}

// In resolves a DFG input port name to its hardware vector port under
// the active configuration.
func (p *Program) In(name string) isa.InPortID {
	if p.cur == nil {
		p.fail("In(%q) before Configure", name)
		return 0
	}
	i := p.cur.Graph.FindIn(name)
	if i < 0 {
		p.fail("no input port %q in DFG %s", name, p.cur.Graph.Name)
		return 0
	}
	return isa.InPortID(p.cur.InPortMap[i])
}

// Out resolves a DFG output port name to its hardware vector port.
func (p *Program) Out(name string) isa.OutPortID {
	if p.cur == nil {
		p.fail("Out(%q) before Configure", name)
		return 0
	}
	i := p.cur.Graph.FindOut(name)
	if i < 0 {
		p.fail("no output port %q in DFG %s", name, p.cur.Graph.Name)
		return 0
	}
	return isa.OutPortID(p.cur.OutPortMap[i])
}

// IndirectIn returns the i-th indirect-capable hardware input port of
// the fabric, for staging indirect address streams.
func (p *Program) IndirectIn(f *cgra.Fabric, i int) isa.InPortID {
	n := 0
	for hw, spec := range f.InPorts {
		if spec.Indirect {
			if n == i {
				return isa.InPortID(hw)
			}
			n++
		}
	}
	p.fail("no indirect input port %d (fabric has %d)", i, n)
	return 0
}

// Assemble encodes the program's command stream into the binary ISA
// representation (the fixed-width instruction words a RISC-V-embedded
// implementation would carry). Delays are not encoded; they interleave
// with the commands in trace order.
func (p *Program) Assemble() ([]uint64, error) {
	var cmds []isa.Command
	for _, op := range p.Trace {
		if op.Cmd != nil {
			cmds = append(cmds, op.Cmd)
		}
	}
	return isa.EncodeProgram(cmds)
}

// seal round-trips the trace once per program, before its first run
// (see Program). A failed round trip keeps failing on every Load.
func (p *Program) seal() error {
	p.sealMu.Lock()
	defer p.sealMu.Unlock()
	if !p.sealed {
		p.sealErr, p.sealed = p.roundTrip(), true
	}
	return p.sealErr
}

// unseal marks the trace edited: the next Load round-trips it again.
func (p *Program) unseal() {
	p.sealMu.Lock()
	p.sealed = false
	p.sealMu.Unlock()
}

// roundTrip re-encodes and decodes every command, so the machine
// executes exactly what the binary ISA can express — any drift between
// a command value and its encoding surfaces as a load-time error. Only
// a command the round trip changed is written back, so a program whose
// commands are already canonical is only read.
func (p *Program) roundTrip() error {
	words, err := p.Assemble()
	if err != nil {
		return err
	}
	decoded, err := isa.DecodeProgram(words)
	if err != nil {
		return err
	}
	i := 0
	for t := range p.Trace {
		if p.Trace[t].Cmd == nil {
			continue
		}
		if i >= len(decoded) {
			return fmt.Errorf("program %s: decode lost commands", p.Name)
		}
		if p.Trace[t].Cmd != decoded[i] {
			p.Trace[t].Cmd = decoded[i]
		}
		i++
	}
	if i != len(decoded) {
		return fmt.Errorf("program %s: decode gained commands", p.Name)
	}
	return nil
}

// CommandWords is the total instruction words of all commands in the
// trace: the control core's dynamic stream-command instruction count.
func (p *Program) CommandWords() uint64 {
	var n uint64
	for _, op := range p.Trace {
		if op.Cmd != nil {
			n += uint64(op.Cmd.Words())
		}
	}
	return n
}
