// Package wire is the hardened JSON wire format for stream-dataflow
// program and machine-config submissions — the format sdserve accepts
// from untrusted clients (docs/SERVE.md). Decoding is strict by
// design: unknown fields, fields inapplicable to a command, oversized
// traces or configuration blobs, and unencodable commands are all
// rejected with a typed *Error naming the offending path, never with a
// panic or a silently defaulted value. Every accepted program is one
// the binary ISA can express: each command is built from named fields
// and then proven encodable via isa.EncodeCommand, so the server-side
// machine executes exactly what a well-formed client sent.
//
// The encoder (FromProgram/FromConfig) is the exact inverse of the
// decoder; the fuzz harness in wire_test.go round-trips generated
// programs both ways.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"

	"softbrain/internal/core"
	"softbrain/internal/faults"
	"softbrain/internal/isa"
)

// Hard decode limits. They bound the resources one submission can
// claim before any simulation starts; the server layers its own HTTP
// body limit on top.
const (
	MaxNameBytes   = 128     // program name length
	MaxTraceOps    = 65536   // trace entries (commands + delays)
	MaxConfigBlobs = 64      // configuration bitstreams per program
	MaxDelayCycles = 1 << 32 // one host-delay span
)

// ErrCode classifies a wire rejection.
type ErrCode string

const (
	ErrSyntax       ErrCode = "syntax"        // malformed JSON
	ErrUnknownField ErrCode = "unknown-field" // field not in the schema, or not applicable to the op
	ErrMissingField ErrCode = "missing-field" // required field absent
	ErrBadValue     ErrCode = "bad-value"     // value outside the architected range
	ErrTooLarge     ErrCode = "too-large"     // a decode limit exceeded
	ErrUnknownOp    ErrCode = "unknown-op"    // command mnemonic not in Table 2
	ErrUnencodable  ErrCode = "unencodable"   // command rejected by the binary ISA encoder
)

// Error is a typed wire rejection: what rule was broken, where.
type Error struct {
	Code ErrCode
	Path string // JSON path, e.g. "trace[12].cmd"
	Msg  string
}

func (e *Error) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("wire: %s: %s", e.Code, e.Msg)
	}
	return fmt.Sprintf("wire: %s at %s: %s", e.Code, e.Path, e.Msg)
}

func reject(code ErrCode, path, format string, args ...any) *Error {
	return &Error{Code: code, Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Pattern is the JSON form of the two-dimensional affine access
// pattern (isa.Affine, Figure 5).
type Pattern struct {
	Start      uint64 `json:"start"`
	AccessSize uint64 `json:"access_size"`
	Stride     uint64 `json:"stride,omitempty"`
	Strides    uint64 `json:"strides,omitempty"`
}

func (p Pattern) affine() isa.Affine {
	return isa.Affine{Start: p.Start, AccessSize: p.AccessSize, Stride: p.Stride, Strides: p.Strides}
}

func fromAffine(a isa.Affine) *Pattern {
	return &Pattern{Start: a.Start, AccessSize: a.AccessSize, Stride: a.Stride, Strides: a.Strides}
}

// Cmd is the JSON form of one stream-dataflow command: the Table 2
// mnemonic plus exactly the named fields that command takes. Fields
// set on a command that does not take them are rejected, not ignored.
type Cmd struct {
	Op string `json:"op"`

	Addr        uint64   `json:"addr,omitempty"`         // SD_Config
	Size        uint64   `json:"size,omitempty"`         // SD_Config
	Src         *Pattern `json:"src,omitempty"`          // memory/scratch source pattern
	DstPattern  *Pattern `json:"dst_pattern,omitempty"`  // SD_Port_Mem destination
	ScratchAddr uint64   `json:"scratch_addr,omitempty"` // scratchpad destination
	Value       uint64   `json:"value,omitempty"`        // SD_Const_Port
	Elem        uint8    `json:"elem,omitempty"`         // element bytes (1/2/4/8)
	Count       uint64   `json:"count,omitempty"`        // element count
	Dst         uint8    `json:"dst,omitempty"`          // input vector port
	SrcPort     uint8    `json:"src_port,omitempty"`     // output vector port
	Idx         uint8    `json:"idx,omitempty"`          // indirect index port
	IdxElem     uint8    `json:"idx_elem,omitempty"`     // index element bytes
	Offset      uint64   `json:"offset,omitempty"`       // indirect base address
	Scale       uint8    `json:"scale,omitempty"`        // indirect index scale
	DataElem    uint8    `json:"data_elem,omitempty"`    // indirect data element bytes
}

// cmdFields maps each mnemonic to the exact JSON field set it takes.
var cmdFields = map[string][]string{
	"SD_Config":             {"addr", "size"},
	"SD_Mem_Scratch":        {"src", "scratch_addr"},
	"SD_Scratch_Port":       {"src", "dst"},
	"SD_Mem_Port":           {"src", "dst"},
	"SD_Const_Port":         {"value", "elem", "count", "dst"},
	"SD_Clean_Port":         {"src_port", "elem", "count"},
	"SD_Port_Port":          {"src_port", "elem", "count", "dst"},
	"SD_Port_Scratch":       {"src_port", "elem", "count", "scratch_addr"},
	"SD_Port_Mem":           {"src_port", "dst_pattern"},
	"SD_IndPort_Port":       {"idx", "idx_elem", "offset", "scale", "data_elem", "count", "dst"},
	"SD_IndPort_Mem":        {"idx", "idx_elem", "offset", "scale", "data_elem", "count", "src_port"},
	"SD_Barrier_Scratch_Rd": {},
	"SD_Barrier_Scratch_Wr": {},
	"SD_Barrier_All":        {},
}

// Op is one trace step: exactly one of a host-delay span or a command.
type Op struct {
	Delay uint64 `json:"delay,omitempty"`
	Cmd   *Cmd   `json:"cmd,omitempty"`
}

// ConfigBlob is one CGRA configuration bitstream at its memory address.
// Data is base64 in the JSON encoding (encoding/json []byte rules).
type ConfigBlob struct {
	Addr uint64 `json:"addr"`
	Data []byte `json:"data"`
}

// Program is the JSON form of a stream-dataflow program.
type Program struct {
	Name    string       `json:"name"`
	Configs []ConfigBlob `json:"configs,omitempty"`
	Trace   []Op         `json:"trace"`
}

// FaultSpec names a seeded fault profile (see internal/faults).
type FaultSpec struct {
	Profile string `json:"profile"`
	Seed    int64  `json:"seed,omitempty"`
}

// Config is the JSON form of a machine configuration: a named fabric
// preset plus the scalar knobs a remote client may turn. Arbitrary
// fabrics are deliberately not accepted over the wire — the preset
// bounds the resources one submission can claim.
type Config struct {
	Preset         string     `json:"preset,omitempty"` // "default" (the zero value) or "dnn"
	WatchdogCycles uint64     `json:"watchdog_cycles,omitempty"`
	NoSkipAhead    bool       `json:"no_skip_ahead,omitempty"` // core.SchedPerCycle; the wire exposes no other mode
	Faults         *FaultSpec `json:"faults,omitempty"`
}

// Build validates the wire config and produces the core.Config it
// names. Unknown presets and fault profiles reject with a typed error.
func (c Config) Build() (core.Config, error) {
	var cfg core.Config
	switch c.Preset {
	case "", "default":
		cfg = core.DefaultConfig()
	case "dnn":
		cfg = core.DNNConfig()
	default:
		return core.Config{}, reject(ErrBadValue, "config.preset", "unknown preset %q (default, dnn)", c.Preset)
	}
	cfg.WatchdogCycles = c.WatchdogCycles
	if c.NoSkipAhead {
		cfg.Sched = core.SchedPerCycle
	}
	if c.Faults != nil {
		fc, err := faults.Profile(c.Faults.Profile, c.Faults.Seed)
		if err != nil {
			return core.Config{}, reject(ErrBadValue, "config.faults.profile", "%v", err)
		}
		cfg.Faults = &fc
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, reject(ErrBadValue, "config", "%v", err)
	}
	return cfg, nil
}

// FromConfig renders the wire form of the scalar knobs of cfg. The
// fabric itself is not serialized (preset is the caller's to set), and
// neither is a fault profile — faults.Config does not carry its
// profile name, so fault injection is requested wire-side by name.
func FromConfig(cfg core.Config, preset string) Config {
	return Config{Preset: preset, WatchdogCycles: cfg.WatchdogCycles, NoSkipAhead: cfg.Sched == core.SchedPerCycle}
}

// UnmarshalProgram strictly decodes data: unknown fields anywhere are
// rejected, as is anything over the package's decode limits. The
// result still needs Build to become a runnable core.Program.
func UnmarshalProgram(data []byte) (Program, error) {
	var wp Program
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wp); err != nil {
		return Program{}, reject(ErrSyntax, "", "%v", err)
	}
	// A second value after the program object is a smuggling attempt.
	if dec.More() {
		return Program{}, reject(ErrSyntax, "", "trailing data after program object")
	}
	return wp, nil
}

// Build validates the wire program and produces the core.Program it
// describes. Every command is checked against its field set, its
// architected value ranges, and the binary ISA encoder.
func (wp Program) Build() (*core.Program, error) {
	if len(wp.Name) > MaxNameBytes {
		return nil, reject(ErrTooLarge, "name", "%d bytes, limit %d", len(wp.Name), MaxNameBytes)
	}
	if len(wp.Trace) > MaxTraceOps {
		return nil, reject(ErrTooLarge, "trace", "%d ops, limit %d", len(wp.Trace), MaxTraceOps)
	}
	if len(wp.Configs) > MaxConfigBlobs {
		return nil, reject(ErrTooLarge, "configs", "%d blobs, limit %d", len(wp.Configs), MaxConfigBlobs)
	}
	p := core.NewProgram(wp.Name)
	for i, cb := range wp.Configs {
		path := fmt.Sprintf("configs[%d]", i)
		if len(cb.Data) == 0 {
			return nil, reject(ErrMissingField, path, "empty configuration bitstream")
		}
		if len(cb.Data) > core.ConfigSlotBytes {
			return nil, reject(ErrTooLarge, path, "%d bytes, slot is %d", len(cb.Data), core.ConfigSlotBytes)
		}
		if cb.Addr < core.ConfigSpace {
			return nil, reject(ErrBadValue, path, "address %#x below the configuration space %#x", cb.Addr, core.ConfigSpace)
		}
		if _, dup := p.Configs[cb.Addr]; dup {
			return nil, reject(ErrBadValue, path, "duplicate configuration address %#x", cb.Addr)
		}
		p.Configs[cb.Addr] = append([]byte(nil), cb.Data...)
	}
	for i, op := range wp.Trace {
		path := fmt.Sprintf("trace[%d]", i)
		switch {
		case op.Cmd == nil && op.Delay == 0:
			return nil, reject(ErrMissingField, path, "op needs a cmd or a non-zero delay")
		case op.Cmd != nil && op.Delay != 0:
			return nil, reject(ErrBadValue, path, "op has both a cmd and a delay")
		case op.Cmd == nil:
			if op.Delay > MaxDelayCycles {
				return nil, reject(ErrTooLarge, path+".delay", "%d cycles, limit %d", op.Delay, uint64(MaxDelayCycles))
			}
			p.Delay(op.Delay)
		default:
			cmd, err := op.Cmd.build(path + ".cmd")
			if err != nil {
				return nil, err
			}
			if _, err := isa.EncodeCommand(cmd); err != nil {
				return nil, reject(ErrUnencodable, path+".cmd", "%v", err)
			}
			p.Trace = append(p.Trace, core.TraceOp{Cmd: cmd})
		}
	}
	if err := p.Err(); err != nil {
		return nil, reject(ErrBadValue, "trace", "%v", err)
	}
	return p, nil
}

// build converts one wire command to its isa.Command, enforcing the
// per-op field set: a field set on a command that does not take it is
// an unknown field, not noise.
func (c *Cmd) build(path string) (isa.Command, error) {
	fields, ok := cmdFields[c.Op]
	if !ok {
		return nil, reject(ErrUnknownOp, path+".op", "%q is not a Table 2 command", c.Op)
	}
	if err := c.checkFieldSet(path, fields); err != nil {
		return nil, err
	}
	elem := func(field string, v uint8) (isa.ElemSize, error) {
		e := isa.ElemSize(v)
		if v == 0 {
			e = isa.Elem64 // elem defaults to the full word, like the emitter API
		}
		if !e.Valid() {
			return 0, reject(ErrBadValue, path+"."+field, "element size %d (1, 2, 4, 8)", v)
		}
		return e, nil
	}
	switch c.Op {
	case "SD_Config":
		return isa.Config{Addr: c.Addr, Size: c.Size}, nil
	case "SD_Mem_Scratch":
		if c.Src == nil {
			return nil, reject(ErrMissingField, path+".src", "source pattern required")
		}
		return isa.MemScratch{Src: c.Src.affine(), ScratchAddr: c.ScratchAddr}, nil
	case "SD_Scratch_Port":
		if c.Src == nil {
			return nil, reject(ErrMissingField, path+".src", "source pattern required")
		}
		return isa.ScratchPort{Src: c.Src.affine(), Dst: isa.InPortID(c.Dst)}, nil
	case "SD_Mem_Port":
		if c.Src == nil {
			return nil, reject(ErrMissingField, path+".src", "source pattern required")
		}
		return isa.MemPort{Src: c.Src.affine(), Dst: isa.InPortID(c.Dst)}, nil
	case "SD_Const_Port":
		e, err := elem("elem", c.Elem)
		if err != nil {
			return nil, err
		}
		return isa.ConstPort{Value: c.Value, Elem: e, Count: c.Count, Dst: isa.InPortID(c.Dst)}, nil
	case "SD_Clean_Port":
		e, err := elem("elem", c.Elem)
		if err != nil {
			return nil, err
		}
		return isa.CleanPort{Src: isa.OutPortID(c.SrcPort), Elem: e, Count: c.Count}, nil
	case "SD_Port_Port":
		e, err := elem("elem", c.Elem)
		if err != nil {
			return nil, err
		}
		return isa.PortPort{Src: isa.OutPortID(c.SrcPort), Elem: e, Count: c.Count, Dst: isa.InPortID(c.Dst)}, nil
	case "SD_Port_Scratch":
		e, err := elem("elem", c.Elem)
		if err != nil {
			return nil, err
		}
		return isa.PortScratch{Src: isa.OutPortID(c.SrcPort), Elem: e, Count: c.Count, ScratchAddr: c.ScratchAddr}, nil
	case "SD_Port_Mem":
		if c.DstPattern == nil {
			return nil, reject(ErrMissingField, path+".dst_pattern", "destination pattern required")
		}
		return isa.PortMem{Src: isa.OutPortID(c.SrcPort), Dst: c.DstPattern.affine()}, nil
	case "SD_IndPort_Port":
		ie, err := elem("idx_elem", c.IdxElem)
		if err != nil {
			return nil, err
		}
		de, err := elem("data_elem", c.DataElem)
		if err != nil {
			return nil, err
		}
		return isa.IndPortPort{Idx: isa.InPortID(c.Idx), IdxElem: ie, Offset: c.Offset,
			Scale: c.Scale, DataElem: de, Count: c.Count, Dst: isa.InPortID(c.Dst)}, nil
	case "SD_IndPort_Mem":
		ie, err := elem("idx_elem", c.IdxElem)
		if err != nil {
			return nil, err
		}
		de, err := elem("data_elem", c.DataElem)
		if err != nil {
			return nil, err
		}
		return isa.IndPortMem{Idx: isa.InPortID(c.Idx), IdxElem: ie, Offset: c.Offset,
			Scale: c.Scale, DataElem: de, Count: c.Count, Src: isa.OutPortID(c.SrcPort)}, nil
	case "SD_Barrier_Scratch_Rd":
		return isa.BarrierScratchRd{}, nil
	case "SD_Barrier_Scratch_Wr":
		return isa.BarrierScratchWr{}, nil
	case "SD_Barrier_All":
		return isa.BarrierAll{}, nil
	}
	return nil, reject(ErrUnknownOp, path+".op", "%q is not a Table 2 command", c.Op)
}

// checkFieldSet rejects any populated field outside the op's set.
func (c *Cmd) checkFieldSet(path string, allowed []string) error {
	in := func(f string) bool {
		for _, a := range allowed {
			if a == f {
				return true
			}
		}
		return false
	}
	set := map[string]bool{
		"addr":         c.Addr != 0,
		"size":         c.Size != 0,
		"src":          c.Src != nil,
		"dst_pattern":  c.DstPattern != nil,
		"scratch_addr": c.ScratchAddr != 0,
		"value":        c.Value != 0,
		"elem":         c.Elem != 0,
		"count":        c.Count != 0,
		"dst":          c.Dst != 0,
		"src_port":     c.SrcPort != 0,
		"idx":          c.Idx != 0,
		"idx_elem":     c.IdxElem != 0,
		"offset":       c.Offset != 0,
		"scale":        c.Scale != 0,
		"data_elem":    c.DataElem != 0,
	}
	for f, isSet := range set {
		if isSet && !in(f) {
			return reject(ErrUnknownField, path+"."+f, "field %s does not apply to %s", f, c.Op)
		}
	}
	return nil
}

// DecodeProgram is UnmarshalProgram followed by Build: raw JSON in,
// runnable program out, every rejection typed.
func DecodeProgram(data []byte) (*core.Program, error) {
	wp, err := UnmarshalProgram(data)
	if err != nil {
		return nil, err
	}
	return wp.Build()
}

// FromProgram renders p in the wire form. It is the exact inverse of
// Build for every encodable program (see the round-trip fuzz test).
func FromProgram(p *core.Program) (Program, error) {
	wp := Program{Name: p.Name}
	for _, addr := range sortedAddrs(p.Configs) {
		wp.Configs = append(wp.Configs, ConfigBlob{Addr: addr, Data: p.Configs[addr]})
	}
	for i, op := range p.Trace {
		if op.Cmd == nil {
			wp.Trace = append(wp.Trace, Op{Delay: op.Delay})
			continue
		}
		wc, err := fromCommand(op.Cmd)
		if err != nil {
			return Program{}, fmt.Errorf("wire: trace[%d]: %w", i, err)
		}
		wp.Trace = append(wp.Trace, Op{Cmd: wc})
	}
	return wp, nil
}

// EncodeProgram is FromProgram rendered to JSON bytes.
func EncodeProgram(p *core.Program) ([]byte, error) {
	wp, err := FromProgram(p)
	if err != nil {
		return nil, err
	}
	return json.Marshal(wp)
}

func sortedAddrs(m map[uint64][]byte) []uint64 {
	addrs := make([]uint64, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	for i := 1; i < len(addrs); i++ { // insertion sort; len <= MaxConfigBlobs
		for j := i; j > 0 && addrs[j-1] > addrs[j]; j-- {
			addrs[j-1], addrs[j] = addrs[j], addrs[j-1]
		}
	}
	return addrs
}

func fromCommand(cmd isa.Command) (*Cmd, error) {
	switch c := cmd.(type) {
	case isa.Config:
		return &Cmd{Op: "SD_Config", Addr: c.Addr, Size: c.Size}, nil
	case isa.MemScratch:
		return &Cmd{Op: "SD_Mem_Scratch", Src: fromAffine(c.Src), ScratchAddr: c.ScratchAddr}, nil
	case isa.ScratchPort:
		return &Cmd{Op: "SD_Scratch_Port", Src: fromAffine(c.Src), Dst: uint8(c.Dst)}, nil
	case isa.MemPort:
		return &Cmd{Op: "SD_Mem_Port", Src: fromAffine(c.Src), Dst: uint8(c.Dst)}, nil
	case isa.ConstPort:
		return &Cmd{Op: "SD_Const_Port", Value: c.Value, Elem: uint8(c.Elem), Count: c.Count, Dst: uint8(c.Dst)}, nil
	case isa.CleanPort:
		return &Cmd{Op: "SD_Clean_Port", SrcPort: uint8(c.Src), Elem: uint8(c.Elem), Count: c.Count}, nil
	case isa.PortPort:
		return &Cmd{Op: "SD_Port_Port", SrcPort: uint8(c.Src), Elem: uint8(c.Elem), Count: c.Count, Dst: uint8(c.Dst)}, nil
	case isa.PortScratch:
		return &Cmd{Op: "SD_Port_Scratch", SrcPort: uint8(c.Src), Elem: uint8(c.Elem), Count: c.Count, ScratchAddr: c.ScratchAddr}, nil
	case isa.PortMem:
		return &Cmd{Op: "SD_Port_Mem", SrcPort: uint8(c.Src), DstPattern: fromAffine(c.Dst)}, nil
	case isa.IndPortPort:
		return &Cmd{Op: "SD_IndPort_Port", Idx: uint8(c.Idx), IdxElem: uint8(c.IdxElem), Offset: c.Offset,
			Scale: c.Scale, DataElem: uint8(c.DataElem), Count: c.Count, Dst: uint8(c.Dst)}, nil
	case isa.IndPortMem:
		return &Cmd{Op: "SD_IndPort_Mem", Idx: uint8(c.Idx), IdxElem: uint8(c.IdxElem), Offset: c.Offset,
			Scale: c.Scale, DataElem: uint8(c.DataElem), Count: c.Count, SrcPort: uint8(c.Src)}, nil
	case isa.BarrierScratchRd:
		return &Cmd{Op: "SD_Barrier_Scratch_Rd"}, nil
	case isa.BarrierScratchWr:
		return &Cmd{Op: "SD_Barrier_Scratch_Wr"}, nil
	case isa.BarrierAll:
		return &Cmd{Op: "SD_Barrier_All"}, nil
	}
	return nil, fmt.Errorf("wire: cannot serialize %T", cmd)
}
