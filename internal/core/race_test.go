package core

import (
	"fmt"
	"sync"
	"testing"

	"softbrain/internal/dfg"
	"softbrain/internal/isa"
)

// TestConcurrentMachines runs independent one-unit clusters in parallel
// goroutines. The simulator itself is single-threaded (Cluster steps
// its units in lockstep), but users may simulate separate clusters
// concurrently — sweeps do — and the only shared state allowed between
// them is the package-global configuration-slot allocator. Under
// `go test -race` this smoke test keeps that property honest.
func TestConcurrentMachines(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := DefaultConfig()
			cl, err := NewCluster(cfg, 1)
			if err != nil {
				errs <- err
				return
			}

			b := dfg.NewBuilder(fmt.Sprintf("sum%d", w))
			a := b.Input("A", 1)
			v := b.Input("B", 1)
			b.Output("C", b.N(dfg.Add(64), a.W(0), v.W(0)))
			g, err := b.Build()
			if err != nil {
				errs <- err
				return
			}

			const n, aAddr, bAddr, rAddr = 32, 0x1000, 0x2000, 0x3000
			for i := uint64(0); i < n; i++ {
				cl.Mem.WriteU64(aAddr+8*i, i)
				cl.Mem.WriteU64(bAddr+8*i, 100*uint64(w)+i)
			}
			p := NewProgram(g.Name)
			p.CompileAndConfigure(cfg.Fabric, g)
			p.Emit(isa.MemPort{Src: isa.Linear(aAddr, n*8), Dst: p.In("A")})
			p.Emit(isa.MemPort{Src: isa.Linear(bAddr, n*8), Dst: p.In("B")})
			p.Emit(isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(rAddr, n*8)})
			p.Emit(isa.BarrierAll{})

			if _, err := runLone(cl, p); err != nil {
				errs <- fmt.Errorf("worker %d: %w", w, err)
				return
			}
			for i := uint64(0); i < n; i++ {
				want := i + 100*uint64(w) + i
				if got := cl.Mem.ReadU64(rAddr + 8*i); got != want {
					errs <- fmt.Errorf("worker %d: r[%d] = %d, want %d", w, i, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
