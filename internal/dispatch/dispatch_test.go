package dispatch

import (
	"testing"

	"softbrain/internal/engine"
	"softbrain/internal/isa"
	"softbrain/internal/mem"
	"softbrain/internal/port"
	"softbrain/internal/scratch"
	"softbrain/internal/sim"
)

type rig struct {
	d     *Dispatcher
	mse   *engine.MSE
	sse   *engine.SSE
	rse   *engine.RSE
	ports *engine.Ports
	sys   *mem.System
	pad   *scratch.Pad
	now   uint64
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
	ports := engine.NewPorts(in, out)
	padBuf := engine.NewPadWriteBuf(8)
	pad := scratch.New(4096)
	r := &rig{sys: sys, pad: pad, ports: ports}
	r.mse = engine.NewMSE(sys, ports, padBuf, 8, nil)
	r.sse = engine.NewSSE(pad, ports, padBuf, 8)
	r.rse = engine.NewRSE(ports, 8)
	r.d = New(r.mse, r.sse, r.rse, padBuf.EmptiedSig(), 4, 4, 8)
	return r
}

func (r *rig) tick(t *testing.T) {
	t.Helper()
	if err := r.d.Tick(r.now); err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if err := r.mse.Tick(r.now); err != nil {
		t.Fatal(err)
	}
	if err := r.sse.Tick(r.now); err != nil {
		t.Fatal(err)
	}
	if err := r.rse.Tick(r.now); err != nil {
		t.Fatal(err)
	}
	r.now++
}

func (r *rig) run(t *testing.T, limit int, cond func() bool) {
	t.Helper()
	for i := 0; i < limit; i++ {
		if cond() {
			return
		}
		r.tick(t)
	}
	if !cond() {
		t.Fatalf("condition not reached in %d cycles", limit)
	}
}

func TestSamePortStreamsSerialize(t *testing.T) {
	r := newRig(t)
	r.sys.Mem.Write(0, make([]byte, 256))
	must(t, r.d.Enqueue(isa.MemPort{Src: isa.Linear(0, 128), Dst: 0}))
	must(t, r.d.Enqueue(isa.MemPort{Src: isa.Linear(128, 128), Dst: 0}))
	r.tick(t) // issues first
	r.tick(t) // second must wait: port 0 writer is held
	if got := r.mse.Active(); got != 1 {
		t.Errorf("second same-port stream issued concurrently (%d active)", got)
	}
	r.run(t, 5000, func() bool {
		if n := r.ports.In[0].Len(); n > 0 {
			r.ports.In[0].Pop(n)
		}
		return r.d.Idle()
	})
	if r.d.Issued != 2 {
		t.Errorf("Issued = %d, want 2", r.d.Issued)
	}
}

func TestDistinctPortStreamsOverlap(t *testing.T) {
	r := newRig(t)
	r.sys.Mem.Write(0, make([]byte, 256))
	must(t, r.d.Enqueue(isa.MemPort{Src: isa.Linear(0, 128), Dst: 0}))
	must(t, r.d.Enqueue(isa.MemPort{Src: isa.Linear(128, 128), Dst: 1}))
	r.tick(t)
	r.tick(t)
	if got := r.mse.Active(); got != 2 {
		t.Errorf("distinct-port streams did not overlap (%d active)", got)
	}
}

func TestIndirectRolesOverlapOnOnePort(t *testing.T) {
	r := newRig(t)
	// Port 3 is written by a MemPort stream (indices) and concurrently
	// read by an IndPortPort stream: different roles, same port.
	for i := uint64(0); i < 8; i++ {
		r.sys.Mem.WriteU64(0x100+8*i, i) // indices 0..7
		r.sys.Mem.WriteU64(0x800+8*i, 40+i)
	}
	must(t, r.d.Enqueue(isa.MemPort{Src: isa.Linear(0x100, 64), Dst: 3}))
	must(t, r.d.Enqueue(isa.IndPortPort{
		Idx: 3, IdxElem: isa.Elem64, Offset: 0x800, Scale: 8,
		DataElem: isa.Elem64, Count: 8, Dst: 0,
	}))
	r.tick(t)
	r.tick(t)
	if got := r.mse.Active(); got != 2 {
		t.Fatalf("index and indirect streams did not overlap (%d active)", got)
	}
	r.run(t, 5000, func() bool { return r.d.Idle() })
	got := r.ports.In[0].PopWords(8)
	for i, v := range got {
		if v != uint64(40+i) {
			t.Errorf("gather[%d] = %d, want %d", i, v, 40+i)
		}
	}
}

func TestScratchWriteBarrier(t *testing.T) {
	r := newRig(t)
	r.sys.Mem.Write(0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	must(t, r.d.Enqueue(isa.MemScratch{Src: isa.Linear(0, 8), ScratchAddr: 0}))
	must(t, r.d.Enqueue(isa.BarrierScratchWr{}))
	must(t, r.d.Enqueue(isa.ScratchPort{Src: isa.Linear(0, 8), Dst: 0}))
	// The read must not issue before the write completes; correctness is
	// visible in the data (pad starts zeroed).
	r.run(t, 5000, func() bool { return r.d.Idle() && r.ports.In[0].Len() == 8 })
	data := r.ports.In[0].Pop(8)
	for i, b := range data {
		if b != byte(i+1) {
			t.Fatalf("read overtook barrier: byte %d = %d", i, b)
		}
	}
	if r.d.BarrierCycles == 0 {
		t.Error("barrier never had to wait; test is vacuous")
	}
}

func TestBarrierAllBlocksCore(t *testing.T) {
	r := newRig(t)
	r.sys.Mem.Write(0, make([]byte, 64))
	must(t, r.d.Enqueue(isa.MemPort{Src: isa.Linear(0, 64), Dst: 0}))
	must(t, r.d.Enqueue(isa.BarrierAll{}))
	if !r.d.BlocksCore() {
		t.Error("BarrierAll in queue should block the core")
	}
	r.run(t, 5000, func() bool {
		if n := r.ports.In[0].Len(); n > 0 {
			r.ports.In[0].Pop(n)
		}
		return r.d.Idle()
	})
	if r.d.BlocksCore() {
		t.Error("core still blocked after completion")
	}
}

// TestBlocksCoreTracksBarrierAll: the core stays blocked while an
// SD_Barrier_All sits anywhere in the dispatch window, or while the
// queue is full, and is released once the barrier pops.
func TestBlocksCoreTracksBarrierAll(t *testing.T) {
	r := newRig(t)
	must(t, r.d.Enqueue(isa.ConstPort{Value: 1, Elem: isa.Elem64, Count: 4, Dst: 0}))
	if r.d.BlocksCore() {
		t.Fatal("a queue without a barrier blocks the core")
	}
	must(t, r.d.Enqueue(isa.BarrierAll{}))
	must(t, r.d.Enqueue(isa.ConstPort{Value: 2, Elem: isa.Elem64, Count: 4, Dst: 1}))
	// The barrier reaches the head once the first stream issues and pops
	// once it retires; the stream behind it stays queued until then.
	for i := 0; r.d.QueueLen() > 1; i++ {
		if i == 1000 {
			t.Fatalf("the barrier never popped (%d queued)", r.d.QueueLen())
		}
		if !r.d.BlocksCore() {
			t.Fatalf("cycle %d: core released with the barrier queued (%d queued)", r.now, r.d.QueueLen())
		}
		if n := r.ports.In[0].Len(); n > 0 {
			r.ports.In[0].Pop(n)
		}
		r.tick(t)
	}
	if r.d.BlocksCore() {
		t.Fatal("core still blocked after the barrier popped")
	}

	// A barrier that fills the window blocks, and keeps blocking from the
	// tail once an older entry issues and frees a slot.
	r = newRig(t)
	must(t, r.d.Enqueue(isa.PortMem{Src: 0, Dst: isa.Linear(0, 64)}))
	for i := 0; i < 6; i++ {
		must(t, r.d.Enqueue(isa.ConstPort{Value: 1, Elem: isa.Elem64, Count: 1, Dst: 1}))
	}
	if r.d.BlocksCore() {
		t.Fatal("7 of 8 entries queued without a barrier block the core")
	}
	must(t, r.d.Enqueue(isa.BarrierAll{}))
	if r.d.CanEnqueue() || !r.d.BlocksCore() {
		t.Fatal("a full window does not block the core")
	}
	r.tick(t)
	if !r.d.CanEnqueue() || !r.d.BlocksCore() {
		t.Fatalf("a barrier at the tail of the window (%d queued) does not block the core", r.d.QueueLen())
	}
}

func TestQueueDepthBlocksCore(t *testing.T) {
	r := newRig(t)
	// Fill the queue behind an unsatisfiable stream (no data ever).
	must(t, r.d.Enqueue(isa.PortMem{Src: 0, Dst: isa.Linear(0, 64)}))
	for i := 0; i < 7; i++ {
		must(t, r.d.Enqueue(isa.ConstPort{Value: 1, Elem: isa.Elem64, Count: 1, Dst: 1}))
	}
	if r.d.CanEnqueue() {
		t.Error("queue should be full")
	}
	if !r.d.BlocksCore() {
		t.Error("full queue should block the core")
	}
	if err := r.d.Enqueue(isa.BarrierAll{}); err == nil {
		t.Error("enqueue into full queue should fail")
	}
}

func TestEnqueueValidatesPorts(t *testing.T) {
	r := newRig(t)
	if err := r.d.Enqueue(isa.MemPort{Src: isa.Linear(0, 8), Dst: 200}); err == nil {
		t.Error("out-of-range input port accepted")
	}
	if err := r.d.Enqueue(isa.CleanPort{Src: 99, Elem: isa.Elem64, Count: 1}); err == nil {
		t.Error("out-of-range output port accepted")
	}
}

func TestResourceStallCounted(t *testing.T) {
	r := newRig(t)
	r.sys.Mem.Write(0, make([]byte, 1024))
	must(t, r.d.Enqueue(isa.MemPort{Src: isa.Linear(0, 512), Dst: 0}))
	must(t, r.d.Enqueue(isa.MemPort{Src: isa.Linear(512, 512), Dst: 0}))
	r.run(t, 10000, func() bool {
		if n := r.ports.In[0].Len(); n > 0 {
			r.ports.In[0].Pop(n)
		}
		return r.d.Idle()
	})
	if r.d.ResourceStall == 0 {
		t.Error("expected resource stalls for same-port streams")
	}
}

// dequeueWatcher sleeps until the dispatcher raises Dequeued, as the
// control core does while the dispatcher blocks it.
type dequeueWatcher struct{ d *Dispatcher }

func (w dequeueWatcher) Name() string             { return "watcher" }
func (w dequeueWatcher) Tick(uint64) error        { return nil }
func (w dequeueWatcher) NextWake(uint64) sim.Hint { return sim.Idle() }
func (w dequeueWatcher) Progress() uint64         { return 0 }
func (w dequeueWatcher) Watch(dst []*sim.Signal) []*sim.Signal {
	return append(dst, &w.d.Dequeued)
}

// TestDequeuedWakesOnlyOnDequeue: what blocks the control core (a full
// queue, or an SD_Barrier_All queued) clears only when a command leaves
// the queue, so Dequeued is raised by an issue and by a barrier pop, and
// not by a stream reaching all-requests-in-flight or retiring.
func TestDequeuedWakesOnlyOnDequeue(t *testing.T) {
	r := newRig(t)
	var k sim.Kernel
	k.Register(dequeueWatcher{r.d})
	k.AfterTick(0, 0) // declare the watch set, then sleep
	woken := func() bool {
		due, _ := k.Due(r.now)
		k.AfterTick(0, r.now)
		return due
	}
	must(t, r.d.Enqueue(isa.MemPort{Src: isa.Linear(0x1000, 64), Dst: 0}))
	r.tick(t)
	if !woken() {
		t.Error("issuing a stream did not raise Dequeued")
	}
	drained := false
	for !r.d.Idle() && r.now < 1000 {
		r.tick(t)
		if woken() {
			t.Errorf("cycle %d raised Dequeued with nothing dequeued", r.now-1)
		}
		drained = drained || len(r.d.inWriter[0]) == 1 && r.d.inWriter[0][0].draining
	}
	if !drained || !r.d.Idle() {
		t.Fatalf("the stream did not drain and retire (drained %v, idle %v)", drained, r.d.Idle())
	}
	must(t, r.d.Enqueue(isa.BarrierAll{}))
	r.tick(t)
	if !woken() || r.d.QueueLen() != 0 {
		t.Error("popping a met SD_Barrier_All did not raise Dequeued")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
