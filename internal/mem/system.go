package mem

import "fmt"

// SysConfig parameterizes the timing model of the memory system behind
// the 512-bit engine bus.
type SysConfig struct {
	LineBytes    int // request granularity (64)
	CacheBytes   int // total cache capacity; 0 disables the cache
	CacheWays    int
	HitLatency   uint64 // cycles from accept to data for a cache hit
	MissLatency  uint64 // additional cycles for a DRAM access
	MissInterval uint64 // min cycles between DRAM accesses (bandwidth)
	AcceptPerCyc int    // line requests accepted per cycle (bus width)
	MaxInflight  int    // outstanding misses (MSHRs)
	WriteLatency uint64 // cycles until a write is globally visible
}

// DefaultSysConfig is the configuration in DESIGN.md §6: 256 KB 8-way L2,
// 8-cycle hits, 200-cycle DRAM at one miss per 4 cycles (16 B/cycle DRAM
// bandwidth), one 64 B request accepted per cycle.
func DefaultSysConfig() SysConfig {
	return SysConfig{
		LineBytes:    64,
		CacheBytes:   256 << 10,
		CacheWays:    8,
		HitLatency:   8,
		MissLatency:  200,
		MissInterval: 4,
		AcceptPerCyc: 1,
		MaxInflight:  16,
		WriteLatency: 8,
	}
}

// DRAM is the shared main-memory channel: a bandwidth token bucket.
// Several Systems (one per Softbrain unit, each with a private cache)
// may share one DRAM, contending for its access slots.
type DRAM struct {
	interval uint64 // min cycles between accesses
	nextFree uint64
}

// NewDRAM builds a channel granting one access per interval cycles.
func NewDRAM(interval uint64) *DRAM { return &DRAM{interval: interval} }

// grant reserves the next access slot at or after now and returns its
// start cycle.
func (d *DRAM) grant(now uint64) uint64 {
	start := max64(now, d.nextFree)
	d.nextFree = start + d.interval
	return start
}

// System is the timing front-end the memory stream engine talks to. Data
// moves functionally through Mem; Request answers "when will this line
// arrive" under cache, DRAM-latency, DRAM-bandwidth, and MSHR limits.
type System struct {
	Mem   *Memory
	Cache *Cache
	dram  *DRAM
	cfg   SysConfig

	acceptCycle uint64   // cycle the accept counter refers to
	accepted    int      // requests accepted in acceptCycle
	inflight    []uint64 // completion times of outstanding misses

	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
}

// NewSystemShared builds a memory system (private cache and accept
// port) over a shared backing store and DRAM channel.
func NewSystemShared(cfg SysConfig, backing *Memory, dram *DRAM) (*System, error) {
	if cfg.LineBytes <= 0 || cfg.AcceptPerCyc <= 0 || cfg.MaxInflight <= 0 {
		return nil, fmt.Errorf("mem: invalid system config %+v", cfg)
	}
	s := &System{Mem: backing, dram: dram, cfg: cfg}
	if cfg.CacheBytes > 0 {
		c, err := NewCache(cfg.CacheBytes, cfg.LineBytes, cfg.CacheWays)
		if err != nil {
			return nil, err
		}
		s.Cache = c
	}
	return s, nil
}

// Config returns the system's timing configuration.
func (s *System) Config() SysConfig { return s.cfg }

// Request models one line-granular access issued at cycle now. It returns
// the cycle at which the data is available (reads) or durable (writes),
// and whether the request was accepted this cycle; a rejected request
// must be retried (backpressure). bytes is the useful payload size, for
// bandwidth statistics.
func (s *System) Request(now uint64, lineAddr uint64, write bool, bytes int) (ready uint64, accepted bool) {
	if now != s.acceptCycle {
		s.acceptCycle = now
		s.accepted = 0
	}
	if s.accepted >= s.cfg.AcceptPerCyc {
		return 0, false
	}

	hit := false // with no cache configured, every access goes to DRAM
	if s.Cache != nil {
		hit = s.Cache.Contains(lineAddr)
	}
	if !hit {
		// A miss needs an MSHR and a DRAM bandwidth slot.
		s.retire(now)
		if len(s.inflight) >= s.cfg.MaxInflight {
			return 0, false
		}
		start := s.dram.grant(now)
		ready = start + s.cfg.HitLatency + s.cfg.MissLatency
		s.inflight = append(s.inflight, ready)
		if s.Cache != nil {
			s.Cache.Access(lineAddr) // allocate
		}
	} else {
		if s.Cache != nil {
			s.Cache.Access(lineAddr) // update LRU, count hit
		}
		ready = now + s.cfg.HitLatency
	}
	if write {
		ready = max64(ready, now+s.cfg.WriteLatency)
		s.Writes++
		s.BytesWritten += uint64(bytes)
	} else {
		s.Reads++
		s.BytesRead += uint64(bytes)
	}
	s.accepted++
	return ready, true
}

// NextMissAccept returns the earliest cycle at which a new miss could
// claim an MSHR: now when one is free, otherwise the earliest
// outstanding-miss completion.
func (s *System) NextMissAccept(now uint64) uint64 {
	live, earliest := 0, uint64(0)
	for _, t := range s.inflight {
		if t <= now {
			continue
		}
		live++
		if earliest == 0 || t < earliest {
			earliest = t
		}
	}
	if live < s.cfg.MaxInflight {
		return now
	}
	return earliest
}

// PendingTimed reports whether any outstanding miss completes after
// now. While one exists, an engine rejected for a full MSHR list will
// be accepted at a known future cycle — the machine is stalled, not
// deadlocked.
func (s *System) PendingTimed(now uint64) bool {
	for _, t := range s.inflight {
		if t > now {
			return true
		}
	}
	return false
}

// retire drops completed misses from the MSHR list.
func (s *System) retire(now uint64) {
	live := s.inflight[:0]
	for _, t := range s.inflight {
		if t > now {
			live = append(live, t)
		}
	}
	s.inflight = live
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
