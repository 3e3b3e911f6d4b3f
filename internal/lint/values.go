package lint

import (
	"encoding/binary"
	"maps"

	"softbrain/internal/cgra"
	"softbrain/internal/core"
	"softbrain/internal/dfg"
	"softbrain/internal/isa"
)

// This file is the value-range pre-pass over staged index streams: it
// resolves, for each SD_IndPort_* command, the range of the index
// values it will consume, whenever those values are statically visible
// in the trace. Three kinds of sources resolve:
//
//   - constant streams: SD_Const_Port stages Count literal copies of a
//     value — the bytes are known exactly;
//   - affine/computed streams: SD_Port_Port stages an output-port slice
//     into the indirect port, and when every mapped input port of the
//     active configuration is itself fed from known bytes, the dataflow
//     graph is evaluated functionally (internal/dfg.Evaluator) to
//     materialize the output stream — this covers index generators such
//     as an accumulator producing 0,1,2,... from a constant stream;
//   - round-trip streams: known bytes the program itself stored — an
//     output port drained to the scratchpad (SD_Port_Scratch) or to
//     DRAM (SD_Port_Mem) and later reloaded (SD_Scratch_Port,
//     SD_Mem_Port, SD_Mem_Scratch) — keep their values across the
//     round trip. The pass maintains known-byte images of the
//     scratchpad and of program-written DRAM, persistent across
//     configuration epochs, and replays each epoch's transfers in
//     program order (resolveEpoch). The race checker independently
//     enforces that order with barriers — an unbarriered store/reload
//     pair is an error finding, and the fix pass rejects any barrier
//     removal that introduces one — so every program the analysis
//     chain accepts really executes the transfers in the order the
//     replay assumes.
//
// Indices loaded from memory or scratchpad bytes the program did not
// itself write (input data, gathered values) are data-dependent and
// stay unresolved. Resolution is order-insensitive within a
// configuration epoch: stream values do not depend on dispatch timing,
// and the FIFO order of an indirect port equals the program order of
// the commands staging into it, so the pass collects stagings and
// consumptions per epoch and matches them at the epoch boundary.

const (
	// maxKnownBytes caps the literal bytes materialized per staged run,
	// per resolved index stream, and per known-byte image; longer
	// streams stay unresolved (conservative) rather than ballooning
	// analysis memory.
	maxKnownBytes = 64 << 10

	// maxEvalInstances caps the dataflow instances evaluated per epoch
	// when materializing recurrence-staged index streams.
	maxEvalInstances = 4096

	// maxResolveRounds bounds the replay/evaluate fixpoint per epoch.
	// Each round either resolves something new or terminates, and a
	// resolution chain (reload completes an input prefix, whose outputs
	// a store deposits, which a later reload picks up) rarely needs more
	// than two rounds in practice.
	maxResolveRounds = 3
)

// idxRange is the closed value range of a resolved index stream.
type idxRange struct {
	lo, hi uint64
}

// stagedRun is one segment of bytes staged into an input-port FIFO.
type stagedRun struct {
	n       uint64 // length in bytes
	data    []byte // literal bytes when known (len == n), else nil
	fromOut int    // hardware output port of a recurrence source, else -1
	off     uint64 // byte offset into that output port's value stream
}

// indUse is one indirect command consuming index bytes from a port.
type indUse struct {
	trace int
	port  int
	elem  isa.ElemSize
	n     uint64 // index bytes consumed
}

// opKind classifies one memory/scratchpad transfer for the replay.
type opKind uint8

const (
	opMemToScratch  opKind = iota // SD_Mem_Scratch: DRAM pattern -> linear scratch
	opPortToScratch               // SD_Port_Scratch: output slice -> linear scratch
	opScratchToPort               // SD_Scratch_Port: scratch pattern -> staged run
	opMemToPort                   // SD_Mem_Port: DRAM pattern -> staged run
	opPortToMem                   // SD_Port_Mem: output slice -> DRAM pattern
	opClobberMem                  // SD_IndPort_Mem: data-dependent scatter
)

// memOp is one epoch transfer, replayed in program order against the
// known-byte images at the epoch boundary.
type memOp struct {
	kind    opKind
	pat     isa.Affine // DRAM/scratch footprint (source for loads, destination for opPortToMem)
	addr    uint64     // linear scratch destination for *ToScratch
	n       uint64     // transfer length in bytes
	fromOut int        // driving output port for port-driven stores
	off     uint64     // byte offset into that output port's value stream
	port    int        // destination input port for loads
	runIdx  int        // index of the staged run a load resolves
}

type valuePass struct {
	fabric     *cgra.Fabric
	scratchCap uint64
	ranges     map[int]idxRange

	sched       *cgra.Schedule
	inRuns      map[int][]stagedRun
	outConsumed map[int]uint64
	uses        []indUse

	// ops is the program-ordered list of the epoch's memory/scratchpad
	// transfers; outStreams caches the output-port byte streams
	// resolveRecurrences materialized for the epoch. Both reset per
	// epoch.
	ops        []memOp
	outStreams map[int][]byte

	// scratch and mem are the known-byte images: scratchpad bytes and
	// DRAM bytes whose values the program itself stored and the pass
	// resolved. They persist across configuration epochs — that is what
	// carries an index stream through a stage-to-scratch round trip that
	// straddles an SD_Config.
	scratch map[uint64]byte
	mem     map[uint64]byte
}

// indexRanges resolves the index-value range of every SD_IndPort_*
// command in the trace whose staged index stream is statically known.
// The map is keyed by trace index; absent entries are unboundable.
func indexRanges(p *core.Program, cfg core.Config) map[int]idxRange {
	v := &valuePass{
		fabric:     cfg.Fabric,
		scratchCap: uint64(cfg.ScratchBytes),
		ranges:     map[int]idxRange{},
		scratch:    map[uint64]byte{},
		mem:        map[uint64]byte{},
	}
	v.resetEpoch()
	for i, op := range p.Trace {
		if op.Cmd != nil {
			v.command(i, op.Cmd, p)
		}
	}
	v.flushEpoch()
	return v.ranges
}

func (v *valuePass) resetEpoch() {
	v.inRuns = map[int][]stagedRun{}
	v.outConsumed = map[int]uint64{}
	v.uses = nil
	v.ops = nil
	v.outStreams = map[int][]byte{}
}

// addRun stages a run into an input-port FIFO and returns its index in
// the port's run list, or -1 when the run is unusable.
func (v *valuePass) addRun(port isa.InPortID, r stagedRun) int {
	if int(port) >= len(v.fabric.InPorts) || r.n == 0 {
		return -1
	}
	v.inRuns[int(port)] = append(v.inRuns[int(port)], r)
	return len(v.inRuns[int(port)]) - 1
}

func (v *valuePass) consumeOut(port isa.OutPortID, n uint64) (off uint64) {
	off = v.outConsumed[int(port)]
	v.outConsumed[int(port)] = satAdd(off, n)
	return off
}

func (v *valuePass) command(idx int, cmd isa.Command, p *core.Program) {
	switch k := cmd.(type) {
	case isa.Config:
		v.flushEpoch()
		v.resetEpoch()
		v.sched = nil
		if blob, ok := p.Configs[k.Addr]; ok {
			if s, err := cgra.DecodeConfig(v.fabric, blob); err == nil {
				v.sched = s
			}
		}
	case isa.MemScratch:
		v.ops = append(v.ops, memOp{kind: opMemToScratch, pat: k.Src, addr: k.ScratchAddr, n: k.Src.TotalBytes()})
	case isa.MemPort:
		if ri := v.addRun(k.Dst, stagedRun{n: k.Src.TotalBytes(), fromOut: -1}); ri >= 0 {
			v.ops = append(v.ops, memOp{kind: opMemToPort, pat: k.Src, n: k.Src.TotalBytes(), port: int(k.Dst), runIdx: ri})
		}
	case isa.ScratchPort:
		if ri := v.addRun(k.Dst, stagedRun{n: k.Src.TotalBytes(), fromOut: -1}); ri >= 0 {
			v.ops = append(v.ops, memOp{kind: opScratchToPort, pat: k.Src, n: k.Src.TotalBytes(), port: int(k.Dst), runIdx: ri})
		}
	case isa.ConstPort:
		v.addRun(k.Dst, constRun(k))
	case isa.CleanPort:
		v.consumeOut(k.Src, satMul(k.Count, uint64(k.Elem)))
	case isa.PortPort:
		n := satMul(k.Count, uint64(k.Elem))
		off := v.consumeOut(k.Src, n)
		v.addRun(k.Dst, stagedRun{n: n, fromOut: int(k.Src), off: off})
	case isa.PortScratch:
		n := satMul(k.Count, uint64(k.Elem))
		off := v.consumeOut(k.Src, n)
		v.ops = append(v.ops, memOp{kind: opPortToScratch, addr: k.ScratchAddr, n: n, fromOut: int(k.Src), off: off})
	case isa.PortMem:
		n := k.Dst.TotalBytes()
		off := v.consumeOut(k.Src, n)
		v.ops = append(v.ops, memOp{kind: opPortToMem, pat: k.Dst, n: n, fromOut: int(k.Src), off: off})
	case isa.IndPortPort:
		v.uses = append(v.uses, indUse{trace: idx, port: int(k.Idx), elem: k.IdxElem, n: satMul(k.Count, uint64(k.IdxElem))})
		// The gathered data is itself data-dependent (chained indirection).
		v.addRun(k.Dst, stagedRun{n: satMul(k.Count, uint64(k.DataElem)), fromOut: -1})
	case isa.IndPortMem:
		v.uses = append(v.uses, indUse{trace: idx, port: int(k.Idx), elem: k.IdxElem, n: satMul(k.Count, uint64(k.IdxElem))})
		v.consumeOut(k.Src, satMul(k.Count, uint64(k.DataElem)))
		v.ops = append(v.ops, memOp{kind: opClobberMem})
	}
}

// constRun materializes the literal bytes an SD_Const_Port stages.
func constRun(k isa.ConstPort) stagedRun {
	n := satMul(k.Count, uint64(k.Elem))
	r := stagedRun{n: n, fromOut: -1}
	if n == 0 || n > maxKnownBytes {
		return r
	}
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], k.Value)
	r.data = make([]byte, 0, n)
	for i := uint64(0); i < k.Count; i++ {
		r.data = append(r.data, word[:k.Elem]...)
	}
	return r
}

// flushEpoch resolves the epoch's stream values (replay + functional
// evaluation, to a fixpoint) and matches each indirect consumption
// against its port's FIFO.
func (v *valuePass) flushEpoch() {
	v.resolveEpoch()

	type cursor struct {
		run int
		off uint64
	}
	cursors := map[int]*cursor{}
	for _, u := range v.uses {
		c := cursors[u.port]
		if c == nil {
			c = &cursor{}
			cursors[u.port] = c
		}
		runs := v.inRuns[u.port]
		need := u.n
		known := need > 0 && need <= maxKnownBytes && u.elem.Valid()
		buf := make([]byte, 0, min64(need, maxKnownBytes))
		for need > 0 && c.run < len(runs) {
			r := runs[c.run]
			take := min64(need, r.n-c.off)
			if r.data != nil && known {
				buf = append(buf, r.data[c.off:c.off+take]...)
			} else {
				known = false
			}
			need -= take
			c.off += take
			if c.off == r.n {
				c.run++
				c.off = 0
			}
		}
		if need > 0 || !known {
			continue // under-staged (a balance error) or data-dependent
		}
		v.ranges[u.trace] = byteRange(buf, u.elem)
	}
}

// resolveEpoch closes the epoch's value analysis: it replays the
// epoch's memory/scratchpad transfers against the known-byte images and
// functionally evaluates recurrence-staged streams, iterating because
// the two feed each other — a reload resolved by the replay may
// complete the known input prefix the evaluator needs, whose outputs a
// later store then deposits for the next reload. Every round restores
// the epoch-entry snapshot first so stores are never applied twice; the
// final replay leaves the images in their epoch-exit state for the next
// epoch to build on.
func (v *valuePass) resolveEpoch() {
	snapMem := maps.Clone(v.mem)
	snapScratch := maps.Clone(v.scratch)
	for round := 0; ; round++ {
		v.mem, v.scratch = maps.Clone(snapMem), maps.Clone(snapScratch)
		changed := v.replay()
		if v.resolveRecurrences() {
			changed = true
		}
		if !changed || round >= maxResolveRounds-1 {
			break
		}
	}
	// Final replay with the complete stream set, writing the images the
	// next epoch inherits.
	v.mem, v.scratch = snapMem, snapScratch
	v.replay()
}

// replay applies the epoch's transfers, in program order, to the
// known-byte images: port-driven stores deposit (or invalidate) bytes,
// loads resolve staged runs whose source bytes are fully known, and
// data-dependent scatters clobber the DRAM image. It reports whether
// any run newly resolved.
func (v *valuePass) replay() bool {
	changed := false
	for i := range v.ops {
		op := &v.ops[i]
		switch op.kind {
		case opMemToScratch:
			if end := satAdd(op.addr, op.n); end > v.scratchCap {
				invalidate(v.scratch, op.addr, end)
			} else {
				copyPattern(v.mem, op.pat, v.scratch, op.addr, op.n)
			}
		case opPortToScratch:
			data := v.outSlice(op.fromOut, op.off, op.n)
			if satAdd(op.addr, op.n) > v.scratchCap {
				data = nil // out of bounds (an oob finding); value untracked
			}
			storeLinear(v.scratch, op.addr, op.n, data)
		case opScratchToPort:
			if v.fillRun(op, v.scratch) {
				changed = true
			}
		case opMemToPort:
			if v.fillRun(op, v.mem) {
				changed = true
			}
		case opPortToMem:
			storePattern(v.mem, op.pat, op.n, v.outSlice(op.fromOut, op.off, op.n))
		case opClobberMem:
			clear(v.mem)
		}
	}
	return changed
}

// outSlice returns the materialized bytes an output port produced at
// [off, off+n), or nil when the stream is not (yet) resolved that far.
func (v *valuePass) outSlice(port int, off, n uint64) []byte {
	s := v.outStreams[port]
	end := satAdd(off, n)
	if end > uint64(len(s)) {
		return nil
	}
	return s[off:end]
}

// fillRun resolves a staged load run when every byte of its source
// footprint is known in the image.
func (v *valuePass) fillRun(op *memOp, img map[uint64]byte) bool {
	runs := v.inRuns[op.port]
	if op.runIdx < 0 || op.runIdx >= len(runs) || runs[op.runIdx].data != nil {
		return false
	}
	if op.n == 0 || op.n > maxKnownBytes {
		return false
	}
	if _, _, ok := op.pat.Extent(); !ok {
		return false
	}
	buf := make([]byte, 0, op.n)
	known := true
	op.pat.EachByte(func(a uint64) {
		b, ok := img[a]
		if !ok {
			known = false
		}
		buf = append(buf, b)
	})
	if !known || uint64(len(buf)) != op.n {
		return false
	}
	runs[op.runIdx].data = buf
	return true
}

// storeLinear writes n data bytes at [addr, addr+n) of an image, or
// just invalidates the range when the bytes are unknown or the image is
// at capacity (unknown is always sound; a dropped known byte only makes
// a downstream reload unresolvable).
func storeLinear(img map[uint64]byte, addr, n uint64, data []byte) {
	invalidate(img, addr, satAdd(addr, n))
	if data == nil || uint64(len(data)) != n || uint64(len(img))+n > maxKnownBytes {
		return
	}
	for i, b := range data {
		img[addr+uint64(i)] = b
	}
}

// storePattern writes data bytes through an affine footprint in stream
// order (revisiting patterns overwrite, matching execution), or
// invalidates the footprint's extent when the bytes are unknown. A
// pattern whose extent overflows clobbers the whole image: its reach is
// unbounded.
func storePattern(img map[uint64]byte, pat isa.Affine, n uint64, data []byte) {
	lo, hi, ok := pat.Extent()
	if !ok {
		clear(img)
		return
	}
	invalidate(img, lo, hi)
	if data == nil || uint64(len(data)) != n || uint64(len(img))+n > maxKnownBytes {
		return
	}
	i := 0
	pat.EachByte(func(a uint64) {
		if i < len(data) {
			img[a] = data[i]
		}
		i++
	})
}

// copyPattern copies bytes read through an affine footprint of src, in
// stream order, into a linear range of dst; each unknown source byte
// invalidates its destination byte.
func copyPattern(src map[uint64]byte, pat isa.Affine, dst map[uint64]byte, addr, n uint64) {
	invalidate(dst, addr, satAdd(addr, n))
	if n == 0 || n > maxKnownBytes {
		return
	}
	if _, _, ok := pat.Extent(); !ok {
		return
	}
	room := uint64(len(dst))+n <= maxKnownBytes
	i := uint64(0)
	pat.EachByte(func(a uint64) {
		if b, known := src[a]; known && room {
			dst[addr+i] = b
		}
		i++
	})
}

// invalidate forgets every known byte in [lo, hi).
func invalidate(img map[uint64]byte, lo, hi uint64) {
	for a := range img {
		if a >= lo && a < hi {
			delete(img, a)
		}
	}
}

// byteRange parses buf as little-endian unsigned elem-sized values and
// returns their min/max.
func byteRange(buf []byte, elem isa.ElemSize) idxRange {
	r := idxRange{lo: ^uint64(0), hi: 0}
	for o := 0; o+int(elem) <= len(buf); o += int(elem) {
		var word [8]byte
		copy(word[:], buf[o:o+int(elem)])
		x := binary.LittleEndian.Uint64(word[:])
		if x < r.lo {
			r.lo = x
		}
		if x > r.hi {
			r.hi = x
		}
	}
	return r
}

// resolveRecurrences materializes, where possible, the output-port byte
// streams that SD_Port_Port commands staged into indirect ports and
// that SD_Port_Scratch/SD_Port_Mem stores deposit into the byte images,
// by functionally evaluating the active graph from known input streams.
// It reports whether any stream or staged run newly resolved.
func (v *valuePass) resolveRecurrences() bool {
	if v.sched == nil {
		return false
	}
	g := v.sched.Graph

	// Instances needed per output port, driven by recurrence runs
	// sitting in indirect ports and by port-driven stores (the runs and
	// ops whose bytes this pass consumes; recurrences into mapped data
	// ports are loop-carried dependences the functional evaluation
	// cannot close over).
	needInst := uint64(0)
	needed := false
	consider := func(fromOut int, off, n uint64) {
		bpi := outBytesPerInstance(v.sched, fromOut)
		end := satAdd(off, n)
		if bpi == 0 || end > maxKnownBytes {
			return
		}
		if end <= uint64(len(v.outStreams[fromOut])) {
			return // already materialized that far
		}
		needed = true
		if inst := (end + bpi - 1) / bpi; inst > needInst {
			needInst = inst
		}
	}
	for p, runs := range v.inRuns {
		if p >= len(v.fabric.InPorts) || !v.fabric.InPorts[p].Indirect {
			continue
		}
		for _, r := range runs {
			if r.fromOut < 0 || r.data != nil {
				continue
			}
			consider(r.fromOut, r.off, r.n)
		}
	}
	for _, op := range v.ops {
		if op.kind == opPortToScratch || op.kind == opPortToMem {
			consider(op.fromOut, op.off, op.n)
		}
	}
	if !needed || needInst == 0 || needInst > maxEvalInstances {
		return false
	}

	// Known prefix of every mapped input port, in whole instances.
	inWords := make([][]uint64, len(g.Ins))
	avail := needInst
	for dfgPort, hw := range v.sched.InPortMap {
		prefix := knownPrefix(v.inRuns[hw])
		instBytes := uint64(g.Ins[dfgPort].Width) * wordBytes
		if n := uint64(len(prefix)) / instBytes; n < avail {
			avail = n
		}
		words := make([]uint64, 0, len(prefix)/8)
		for o := 0; o+8 <= len(prefix); o += 8 {
			words = append(words, binary.LittleEndian.Uint64(prefix[o:]))
		}
		inWords[dfgPort] = words
	}
	if avail == 0 {
		return false
	}

	ev, err := dfg.NewEvaluator(g)
	if err != nil {
		return false
	}
	outBytes := make([][]byte, len(g.Outs))
	ins := make([][]uint64, len(g.Ins))
	for inst := uint64(0); inst < avail; inst++ {
		for p := range g.Ins {
			w := uint64(g.Ins[p].Width)
			ins[p] = inWords[p][inst*w : (inst+1)*w]
		}
		if _, err := ev.Eval(ins); err != nil {
			return false
		}
		for p := range g.Outs {
			outBytes[p] = ev.AppendOut(outBytes[p], p)
		}
	}

	// Publish the materialized streams (they only ever grow within an
	// epoch: known prefixes are append-only, the evaluator is
	// deterministic) and patch resolved bytes back into the
	// indirect-port runs.
	changed := false
	for dfgPort, hw := range v.sched.OutPortMap {
		if s := outBytes[dfgPort]; uint64(len(s)) > uint64(len(v.outStreams[hw])) {
			v.outStreams[hw] = s
			changed = true
		}
	}
	for p, runs := range v.inRuns {
		if p >= len(v.fabric.InPorts) || !v.fabric.InPorts[p].Indirect {
			continue
		}
		for i, r := range runs {
			if r.fromOut < 0 || r.data != nil {
				continue
			}
			if data := v.outSlice(r.fromOut, r.off, r.n); data != nil {
				runs[i].data = data
				changed = true
			}
		}
	}
	return changed
}

// knownPrefix concatenates the leading literal bytes of a run list,
// stopping at the first unknown or recurrence-staged run.
func knownPrefix(runs []stagedRun) []byte {
	var out []byte
	for _, r := range runs {
		if r.data == nil {
			break
		}
		if uint64(len(out))+r.n > maxKnownBytes {
			break
		}
		out = append(out, r.data...)
	}
	return out
}

// outBytesPerInstance is the bytes hardware output port hw produces per
// dataflow instance under the schedule, or 0 when unmapped.
func outBytesPerInstance(s *cgra.Schedule, hw int) uint64 {
	for dfgPort, h := range s.OutPortMap {
		if h == hw {
			return uint64(s.Graph.Outs[dfgPort].BytesPerInstance())
		}
	}
	return 0
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
