package engine

import (
	"bytes"
	"reflect"
	"testing"

	"softbrain/internal/isa"
	"softbrain/internal/mem"
	"softbrain/internal/port"
	"softbrain/internal/scratch"
	"softbrain/internal/sim"
)

// rig is a small test bench: a memory system, scratchpad, ports and all
// three engines.
type rig struct {
	sys     *mem.System
	pad     *scratch.Pad
	ports   *Ports
	padBuf  *PadWriteBuf
	mse     *MSE
	sse     *SSE
	rse     *RSE
	configs []uint64
	now     uint64
}

func mustPort(t *testing.T, name string, width, depth int) *port.Queue {
	t.Helper()
	q, err := port.New(name, width, depth)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func newRig(t *testing.T) *rig {
	t.Helper()
	cfg := mem.DefaultSysConfig()
	sys, err := mem.NewSystemShared(cfg, mem.NewMemory(), mem.NewDRAM(cfg.MissInterval))
	if err != nil {
		t.Fatal(err)
	}
	var in, out []*port.Queue
	for i := 0; i < 4; i++ {
		in = append(in, mustPort(t, "in", 8, 64))
		out = append(out, mustPort(t, "out", 8, 64))
	}
	r := &rig{
		sys:    sys,
		pad:    scratch.New(4096),
		ports:  NewPorts(in, out),
		padBuf: NewPadWriteBuf(8),
	}
	r.mse = NewMSE(sys, r.ports, r.padBuf, 8, func(addr uint64) { r.configs = append(r.configs, addr) })
	r.sse = NewSSE(r.pad, r.ports, r.padBuf, 8)
	r.rse = NewRSE(r.ports, 8)
	return r
}

// run ticks all engines until cond holds or the cycle limit hits.
func (r *rig) run(t *testing.T, limit int, cond func() bool) {
	t.Helper()
	for i := 0; i < limit; i++ {
		if cond() {
			return
		}
		if err := r.mse.Tick(r.now); err != nil {
			t.Fatalf("MSE: %v", err)
		}
		if err := r.sse.Tick(r.now); err != nil {
			t.Fatalf("SSE: %v", err)
		}
		if err := r.rse.Tick(r.now); err != nil {
			t.Fatalf("RSE: %v", err)
		}
		r.now++
	}
	if !cond() {
		t.Fatalf("condition not reached in %d cycles", limit)
	}
}

func drain(done ...[]int) int {
	n := 0
	for _, d := range done {
		n += len(d)
	}
	return n
}

func TestMemPortLinear(t *testing.T) {
	r := newRig(t)
	want := make([]byte, 200)
	for i := range want {
		want[i] = byte(i * 7)
	}
	r.sys.Mem.Write(0x1000, want)
	if err := r.mse.StartRead(1, isa.MemPort{Src: isa.Linear(0x1000, 200), Dst: 0}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	r.run(t, 2000, func() bool {
		if n := r.ports.In[0].Len(); n > 0 {
			got = append(got, r.ports.In[0].Pop(n)...)
		}
		return len(got) == len(want) && r.mse.Active() == 0
	})
	if !bytes.Equal(got, want) {
		t.Error("delivered data mismatch")
	}
	if drain(r.mse.Done()) != 1 {
		t.Error("completion not reported")
	}
}

func TestMemPortStrided(t *testing.T) {
	r := newRig(t)
	// Memory holds row-major 8x16; stream reads column 0 (8 bytes per
	// row start, stride 16, 8 rows).
	backing := make([]byte, 128)
	for i := range backing {
		backing[i] = byte(i)
	}
	r.sys.Mem.Write(0, backing)
	pat := isa.Strided2D(0, 8, 16, 8)
	if err := r.mse.StartRead(1, isa.MemPort{Src: pat, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	r.run(t, 2000, func() bool {
		if n := r.ports.In[1].Len(); n > 0 {
			got = append(got, r.ports.In[1].Pop(n)...)
		}
		return r.mse.Active() == 0 && len(got) == 64
	})
	var want []byte
	pat.EachByte(func(a uint64) { want = append(want, backing[a]) })
	if !bytes.Equal(got, want) {
		t.Errorf("strided read mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestMemScratchThenScratchPort(t *testing.T) {
	r := newRig(t)
	src := make([]byte, 96)
	for i := range src {
		src[i] = byte(200 - i)
	}
	r.sys.Mem.Write(0x2000, src)
	if err := r.mse.StartRead(1, isa.MemScratch{Src: isa.Linear(0x2000, 96), ScratchAddr: 16}); err != nil {
		t.Fatal(err)
	}
	r.run(t, 2000, func() bool { return r.mse.Active() == 0 && r.padBuf.Len() == 0 })
	padGot := make([]byte, 96)
	if err := r.pad.Read(16, padGot); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(padGot, src) {
		t.Fatal("scratchpad contents mismatch after SD_Mem_Scratch")
	}

	if err := r.sse.StartRead(2, isa.ScratchPort{Src: isa.Linear(16, 96), Dst: 2}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	r.run(t, 2000, func() bool {
		if n := r.ports.In[2].Len(); n > 0 {
			got = append(got, r.ports.In[2].Pop(n)...)
		}
		return r.sse.Active() == 0 && len(got) == 96
	})
	if !bytes.Equal(got, src) {
		t.Error("scratch->port data mismatch")
	}
}

func TestIndirectGather(t *testing.T) {
	r := newRig(t)
	// Table of 64-bit values at base; indices pick a permutation.
	base := uint64(0x4000)
	for i := uint64(0); i < 16; i++ {
		r.sys.Mem.WriteU64(base+8*i, 1000+i)
	}
	indices := []uint64{5, 3, 3, 15, 0, 7}
	// Feed indices directly into indirect port 3 as 32-bit elements.
	for _, ix := range indices {
		r.ports.In[3].Push([]byte{byte(ix), byte(ix >> 8), byte(ix >> 16), byte(ix >> 24)})
	}
	err := r.mse.StartRead(1, isa.IndPortPort{
		Idx: 3, IdxElem: isa.Elem32, Offset: base, Scale: 8,
		DataElem: isa.Elem64, Count: uint64(len(indices)), Dst: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, 2000, func() bool { return r.mse.Active() == 0 })
	for _, ix := range indices {
		words := r.ports.In[0].PopWords(1)
		if words[0] != 1000+ix {
			t.Errorf("gather got %d, want %d", words[0], 1000+ix)
		}
	}
}

func TestPortMemWrite(t *testing.T) {
	r := newRig(t)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i + 1)
	}
	r.ports.Out[0].Push(data)
	// Scatter into two 32-byte rows 64 bytes apart.
	pat := isa.Strided2D(0x3000, 32, 64, 2)
	if err := r.mse.StartWrite(1, isa.PortMem{Src: 0, Dst: pat}); err != nil {
		t.Fatal(err)
	}
	r.run(t, 2000, func() bool { return r.mse.Active() == 0 })
	got := make([]byte, 32)
	r.sys.Mem.Read(0x3000, got)
	if !bytes.Equal(got, data[:32]) {
		t.Error("first row mismatch")
	}
	r.sys.Mem.Read(0x3040, got)
	if !bytes.Equal(got, data[32:]) {
		t.Error("second row mismatch")
	}
}

func TestIndirectScatter(t *testing.T) {
	r := newRig(t)
	indices := []uint64{9, 2, 4}
	for _, ix := range indices {
		r.ports.In[3].Push([]byte{byte(ix), 0})
	}
	vals := []uint64{111, 222, 333}
	for _, v := range vals {
		r.ports.Out[1].PushWords([]uint64{v})
	}
	err := r.mse.StartWrite(1, isa.IndPortMem{
		Idx: 3, IdxElem: isa.Elem16, Offset: 0x5000, Scale: 8,
		DataElem: isa.Elem64, Count: 3, Src: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, 2000, func() bool { return r.mse.Active() == 0 })
	for i, ix := range indices {
		if got := r.sys.Mem.ReadU64(0x5000 + 8*ix); got != vals[i] {
			t.Errorf("scatter [%d] = %d, want %d", ix, got, vals[i])
		}
	}
}

func TestConfigStreamCallback(t *testing.T) {
	r := newRig(t)
	if err := r.mse.StartRead(7, isa.Config{Addr: 0x7000, Size: 200}); err != nil {
		t.Fatal(err)
	}
	r.run(t, 2000, func() bool { return r.mse.Active() == 0 })
	if len(r.configs) != 1 || r.configs[0] != 0x7000 {
		t.Errorf("config callback got %v", r.configs)
	}
}

func TestRSEConstCleanRecurrence(t *testing.T) {
	r := newRig(t)
	// Const: 5 16-bit elements of value 0xBEEF into port 0.
	if err := r.rse.Start(1, isa.ConstPort{Value: 0xBEEF, Elem: isa.Elem16, Count: 5, Dst: 0}); err != nil {
		t.Fatal(err)
	}
	r.run(t, 100, func() bool { return r.rse.Active() == 0 })
	raw := r.ports.In[0].Pop(10)
	for i := 0; i < 5; i++ {
		if raw[2*i] != 0xEF || raw[2*i+1] != 0xBE {
			t.Fatalf("const element %d wrong: % x", i, raw)
		}
	}

	// Recurrence: move 3 words out port 2 -> in port 1; then clean 1 word.
	r.ports.Out[2].PushWords([]uint64{10, 20, 30, 99})
	if err := r.rse.Start(2, isa.PortPort{Src: 2, Elem: isa.Elem64, Count: 3, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	r.run(t, 100, func() bool { return r.rse.Active() == 0 })
	got := r.ports.In[1].PopWords(3)
	if got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("recurrence moved %v", got)
	}
	if err := r.rse.Start(3, isa.CleanPort{Src: 2, Elem: isa.Elem64, Count: 1}); err != nil {
		t.Fatal(err)
	}
	r.run(t, 100, func() bool { return r.rse.Active() == 0 })
	if r.ports.Out[2].Len() != 0 {
		t.Error("clean did not discard")
	}
	if drain(r.rse.Done()) != 3 {
		t.Error("RSE completions missing")
	}
}

func TestPortScratchWrite(t *testing.T) {
	r := newRig(t)
	r.ports.Out[0].PushWords([]uint64{0xAABB, 0xCCDD})
	if err := r.sse.StartWrite(1, isa.PortScratch{Src: 0, Elem: isa.Elem64, Count: 2, ScratchAddr: 100}); err != nil {
		t.Fatal(err)
	}
	r.run(t, 100, func() bool { return r.sse.Active() == 0 })
	v, err := r.pad.ReadU64(100)
	if err != nil || v != 0xAABB {
		t.Errorf("pad word 0 = %#x, %v", v, err)
	}
	v, _ = r.pad.ReadU64(108)
	if v != 0xCCDD {
		t.Errorf("pad word 1 = %#x", v)
	}
}

// Backpressure: a long stream into a tiny port must not overflow or
// reorder; popping slowly drains it completely.
func TestBackpressureNeverOverflows(t *testing.T) {
	r := newRig(t)
	small := mustPort(t, "small", 1, 2) // 16 bytes
	r.ports.In[0] = small
	total := 400
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i)
	}
	r.sys.Mem.Write(0, src)
	if err := r.mse.StartRead(1, isa.MemPort{Src: isa.Linear(0, uint64(total)), Dst: 0}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	r.run(t, 20000, func() bool {
		// Pop at most 3 bytes per cycle: slower than the stream.
		n := small.Len()
		if n > 3 {
			n = 3
		}
		if n > 0 {
			got = append(got, small.Pop(n)...)
		}
		return len(got) == total && r.mse.Active() == 0
	})
	if !bytes.Equal(got, src) {
		t.Error("backpressured stream reordered or corrupted data")
	}
}

// The balance unit must keep a backpressured stream from starving its
// sibling: port 0 is never drained, port 1 is; the port-1 stream must
// finish long before the port-0 stream could.
func TestBalanceUnitPrioritizesStarvedPort(t *testing.T) {
	r := newRig(t)
	blocked := mustPort(t, "blocked", 1, 2)
	r.ports.In[0] = blocked
	r.sys.Mem.Write(0, make([]byte, 4096))
	if err := r.mse.StartRead(1, isa.MemPort{Src: isa.Linear(0, 4096), Dst: 0}); err != nil {
		t.Fatal(err)
	}
	if err := r.mse.StartRead(2, isa.MemPort{Src: isa.Linear(0, 512), Dst: 1}); err != nil {
		t.Fatal(err)
	}
	finished := false
	r.run(t, 5000, func() bool {
		if n := r.ports.In[1].Len(); n > 0 {
			r.ports.In[1].Pop(n)
		}
		for _, id := range r.mse.Done() {
			if id == 2 {
				finished = true
			}
		}
		return finished
	})
}

func TestEngineTableLimits(t *testing.T) {
	r := newRig(t)
	for i := 0; i < 8; i++ {
		if err := r.rse.Start(i, isa.ConstPort{Value: 1, Elem: isa.Elem64, Count: 1, Dst: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if r.rse.CanAccept() {
		t.Error("RSE table should be full")
	}
	if err := r.rse.Start(99, isa.ConstPort{Value: 1, Elem: isa.Elem64, Count: 1, Dst: 0}); err == nil {
		t.Error("RSE overfill accepted")
	}
	if err := r.mse.StartRead(1, isa.PortMem{}); err == nil {
		t.Error("MSE read accepted a write command")
	}
	if err := r.mse.StartWrite(1, isa.MemPort{}); err == nil {
		t.Error("MSE write accepted a read command")
	}
	if err := r.rse.Start(1, isa.MemPort{}); err == nil {
		t.Error("RSE accepted a memory command")
	}
}

// orderBlocked drives the all-requests-in-flight overlap on one input
// port: SD_Mem_Port stream 1 reads a cold line (a DRAM miss) and, once
// it has issued its only request, stream 2 reads a cached line into the
// same port. Stream 2's response is ready long before stream 1's, but it
// may only follow it into the port. The rig runs for cycles [0, end): on
// every cycle, or, when hinted, only on the cycles the engine's own
// wake hint or a stream start (which raises Kicks) makes due, with the
// cycles in between replayed through OnSkip. It returns port 0's
// occupancy after each cycle, the bytes delivered, the cycles the
// engine ticked on and the hint after the tick at cycle wantAt.
func orderBlocked(t *testing.T, end, wantAt uint64, hinted bool) (occ []int, got []byte, ticks []uint64, hint sim.Hint) {
	t.Helper()
	r := newRig(t)
	const cold, warm = 0x1000, 0x8000
	for i := range uint64(LineBytes) {
		r.sys.Mem.StoreByte(cold+i, byte(i))
		r.sys.Mem.StoreByte(warm+i, byte(0x80+i))
	}
	r.sys.Cache.Access(warm)
	starts := map[uint64]isa.MemPort{
		0: {Src: isa.Linear(cold, LineBytes), Dst: 0},
		1: {Src: isa.Linear(warm, LineBytes), Dst: 0},
	}
	h, last := sim.ReadyNow(), int64(-1)
	for now := range end {
		cmd, kicked := starts[now]
		if kicked {
			if err := r.mse.StartRead(int(now)+1, cmd); err != nil {
				t.Fatal(err)
			}
		}
		due := kicked || h.Kind == sim.WakeReady || h.Kind == sim.WakeTimed && now >= h.At
		if !hinted || due {
			if from := uint64(last + 1); from < now {
				r.mse.OnSkip(from, now)
			}
			if err := r.mse.Tick(now); err != nil {
				t.Fatal(err)
			}
			ticks, last = append(ticks, now), int64(now)
			if h = r.mse.NextWake(now); now == wantAt {
				hint = h
			}
		}
		occ = append(occ, r.ports.In[0].Len())
	}
	return occ, r.ports.In[0].Pop(r.ports.In[0].Len()), ticks, hint
}

// TestNextWakeWaitsForOlderStreamToPort: a ready response queued behind
// an older stream to the same port is not deliverable, so the engine's
// hint is the older stream's in-flight response, and ticking only on
// the hinted cycles delivers the same bytes on the same cycles as
// ticking every cycle.
func TestNextWakeWaitsForOlderStreamToPort(t *testing.T) {
	cfg := mem.DefaultSysConfig()
	missReady := cfg.HitLatency + cfg.MissLatency // stream 1 issues at cycle 0
	hitReady := 1 + cfg.HitLatency                // stream 2 issues at cycle 1
	end := missReady + 4
	occ, got, _, hint := orderBlocked(t, end, hitReady, false)
	if want := sim.WakeAt(missReady); hint != want {
		t.Errorf("hint after cycle %d with stream 2 ready behind stream 1 = %+v, want %+v", hitReady, hint, want)
	}
	hOcc, hGot, hTicks, _ := orderBlocked(t, end, hitReady, true)
	if !reflect.DeepEqual(hOcc, occ) {
		t.Errorf("port occupancy per cycle differs:\nevery cycle %v\nhinted      %v", occ, hOcc)
	}
	if !bytes.Equal(hGot, got) || len(got) != 2*LineBytes || got[0] != 0 || got[LineBytes] != 0x80 {
		t.Errorf("delivered bytes: every cycle %v, hinted %v; want the cold line, then the warm one", got, hGot)
	}
	for _, c := range hTicks {
		if c > hitReady && c < missReady {
			t.Errorf("hinted engine ticked at cycle %d, while only the blocked response was ready (ticks %v)", c, hTicks)
			break
		}
	}
}
