package cgra

import (
	"encoding/binary"
	"fmt"
	"io"

	"softbrain/internal/dfg"
)

// The configuration bitstream is what SD_Config loads from memory: it
// fully describes a compiled DFG — functional-unit opcodes and
// immediates, circuit-switched routes, delay-FIFO settings, timing and
// the vector-port mapping. EncodeConfig and DecodeConfig round-trip a
// Schedule (including the graph itself), so the machine executes what
// was actually loaded, not a looked-up Go object.
//
// Layout (little-endian): a header with magic/counts, the port tables,
// the node table and the connection tables. Strings are length-prefixed.

const configMagic = 0x53_44_43_46 // "SDCF"

type bitWriter struct{ b []byte }

func (w *bitWriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *bitWriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *bitWriter) i32(v int)    { w.u32(uint32(int32(v))) }
func (w *bitWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// bitReader decodes the bitstream in place. A read past the end fails
// as encoding/binary's does: io.EOF when no bytes remain,
// io.ErrUnexpectedEOF when only part of the value does.
type bitReader struct{ b []byte }

// next consumes the next n bytes.
func (r *bitReader) next(n int) ([]byte, error) {
	switch {
	case len(r.b) >= n:
		p := r.b[:n]
		r.b = r.b[n:]
		return p, nil
	case len(r.b) == 0:
		return nil, io.EOF
	}
	r.b = nil
	return nil, io.ErrUnexpectedEOF
}

func (r *bitReader) u32() (uint32, error) {
	p, err := r.next(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(p), nil
}
func (r *bitReader) u64() (uint64, error) {
	p, err := r.next(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}
func (r *bitReader) i32() (int, error) {
	v, err := r.u32()
	return int(int32(v)), err
}
func (r *bitReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if n > 4096 {
		return "", fmt.Errorf("cgra: unreasonable string length %d", n)
	}
	p, err := r.next(int(n))
	if err != nil {
		return "", err
	}
	return string(p), nil
}

func writeRef(w *bitWriter, r dfg.Ref) {
	w.u32(uint32(r.Kind))
	w.i32(r.Port)
	w.i32(r.Word)
	w.i32(int(r.Node))
	w.u64(r.Imm)
}

func readRef(r *bitReader) (dfg.Ref, error) {
	var out dfg.Ref
	k, err := r.u32()
	if err != nil {
		return out, err
	}
	out.Kind = dfg.RefKind(k)
	if out.Port, err = r.i32(); err != nil {
		return out, err
	}
	if out.Word, err = r.i32(); err != nil {
		return out, err
	}
	n, err := r.i32()
	if err != nil {
		return out, err
	}
	out.Node = dfg.NodeID(n)
	out.Imm, err = r.u64()
	return out, err
}

func writeConn(w *bitWriter, c Conn) {
	w.u32(boolBit(c.Val.FromPort))
	w.i32(c.Val.Port)
	w.i32(c.Val.Word)
	w.i32(int(c.Val.Node))
	w.i32(c.Delay)
	w.u32(uint32(len(c.Path)))
	for _, pe := range c.Path {
		w.i32(pe)
	}
}

func readConn(r *bitReader) (Conn, error) {
	var c Conn
	fp, err := r.u32()
	if err != nil {
		return c, err
	}
	c.Val.FromPort = fp != 0
	if c.Val.Port, err = r.i32(); err != nil {
		return c, err
	}
	if c.Val.Word, err = r.i32(); err != nil {
		return c, err
	}
	n, err := r.i32()
	if err != nil {
		return c, err
	}
	c.Val.Node = dfg.NodeID(n)
	if c.Delay, err = r.i32(); err != nil {
		return c, err
	}
	pl, err := r.u32()
	if err != nil {
		return c, err
	}
	if pl > 4096 {
		return c, fmt.Errorf("cgra: unreasonable path length %d", pl)
	}
	if pl > 0 {
		c.Path = make([]int, pl)
		for i := range c.Path {
			if c.Path[i], err = r.i32(); err != nil {
				return c, err
			}
		}
	}
	return c, nil
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// EncodeConfig serializes the schedule (with its graph) into the
// configuration bitstream.
func EncodeConfig(s *Schedule) []byte {
	g := s.Graph
	w := &bitWriter{}
	w.u32(configMagic)
	w.str(g.Name)

	w.u32(uint32(len(g.Ins)))
	for i, p := range g.Ins {
		w.str(p.Name)
		w.i32(p.Width)
		w.i32(s.InPortMap[i])
	}
	w.u32(uint32(len(g.Outs)))
	for i, p := range g.Outs {
		w.str(p.Name)
		w.i32(p.ElemBytes)
		w.i32(s.OutPortMap[i])
		w.i32(s.OutArrive[i])
		w.u32(uint32(len(p.Sources)))
		for _, src := range p.Sources {
			writeRef(w, src)
		}
		for _, c := range s.OutConn[i] {
			writeConn(w, c)
		}
	}
	w.u32(uint32(len(g.Nodes)))
	for _, n := range g.Nodes {
		w.u32(uint32(n.Op.Base))
		w.u32(uint32(n.Op.Width))
		w.i32(s.Place[n.ID])
		w.i32(s.NodeFire[n.ID])
		w.u32(uint32(len(n.Args)))
		for _, a := range n.Args {
			writeRef(w, a)
		}
		for _, c := range s.Operand[n.ID] {
			writeConn(w, c)
		}
	}
	w.i32(s.Depth)
	return w.b
}

// DecodeConfig reconstructs a Schedule (and its graph) from the
// bitstream, validating it against the fabric it will configure.
func DecodeConfig(f *Fabric, data []byte) (*Schedule, error) {
	r := &bitReader{b: data}
	magic, err := r.u32()
	if err != nil || magic != configMagic {
		return nil, fmt.Errorf("cgra: bad configuration magic %#x", magic)
	}
	g := &dfg.Graph{}
	s := &Schedule{Fabric: f, Graph: g}
	if g.Name, err = r.str(); err != nil {
		return nil, err
	}

	nIn, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nIn; i++ {
		var p dfg.InPort
		if p.Name, err = r.str(); err != nil {
			return nil, err
		}
		if p.Width, err = r.i32(); err != nil {
			return nil, err
		}
		hw, err := r.i32()
		if err != nil {
			return nil, err
		}
		g.Ins = append(g.Ins, p)
		s.InPortMap = append(s.InPortMap, hw)
	}

	nOut, err := r.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nOut; i++ {
		var p dfg.OutPort
		if p.Name, err = r.str(); err != nil {
			return nil, err
		}
		if p.ElemBytes, err = r.i32(); err != nil {
			return nil, err
		}
		hw, err := r.i32()
		if err != nil {
			return nil, err
		}
		arrive, err := r.i32()
		if err != nil {
			return nil, err
		}
		width, err := r.u32()
		if err != nil {
			return nil, err
		}
		if width > 8 {
			return nil, fmt.Errorf("cgra: output width %d", width)
		}
		var conns []Conn
		for w := uint32(0); w < width; w++ {
			src, err := readRef(r)
			if err != nil {
				return nil, err
			}
			p.Sources = append(p.Sources, src)
		}
		for w := uint32(0); w < width; w++ {
			c, err := readConn(r)
			if err != nil {
				return nil, err
			}
			conns = append(conns, c)
		}
		g.Outs = append(g.Outs, p)
		s.OutPortMap = append(s.OutPortMap, hw)
		s.OutArrive = append(s.OutArrive, arrive)
		s.OutConn = append(s.OutConn, conns)
	}

	nNodes, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nNodes > uint32(f.NumPEs()) {
		return nil, fmt.Errorf("cgra: %d nodes for %d PEs", nNodes, f.NumPEs())
	}
	for id := uint32(0); id < nNodes; id++ {
		base, err := r.u32()
		if err != nil {
			return nil, err
		}
		width, err := r.u32()
		if err != nil {
			return nil, err
		}
		pe, err := r.i32()
		if err != nil {
			return nil, err
		}
		fire, err := r.i32()
		if err != nil {
			return nil, err
		}
		arity, err := r.u32()
		if err != nil {
			return nil, err
		}
		if arity > 3 {
			return nil, fmt.Errorf("cgra: node arity %d", arity)
		}
		n := dfg.Node{ID: dfg.NodeID(id), Op: dfg.Op{Base: dfg.BaseOp(base), Width: uint8(width)}}
		var conns []Conn
		for a := uint32(0); a < arity; a++ {
			ref, err := readRef(r)
			if err != nil {
				return nil, err
			}
			n.Args = append(n.Args, ref)
		}
		for a := uint32(0); a < arity; a++ {
			c, err := readConn(r)
			if err != nil {
				return nil, err
			}
			conns = append(conns, c)
		}
		g.Nodes = append(g.Nodes, n)
		s.Place = append(s.Place, pe)
		s.NodeFire = append(s.NodeFire, fire)
		s.Operand = append(s.Operand, conns)
	}
	if s.Depth, err = r.i32(); err != nil {
		return nil, err
	}

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("cgra: decoded graph invalid: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("cgra: decoded schedule invalid: %w", err)
	}
	return s, nil
}
