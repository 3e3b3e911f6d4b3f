package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemoryZeroFill(t *testing.T) {
	m := NewMemory()
	buf := make([]byte, 16)
	for i := range buf {
		buf[i] = 0xff
	}
	m.Read(0x1234, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("unwritten byte %d reads %d", i, b)
		}
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	data := []byte{1, 2, 3, 4, 5}
	m.Write(100, data)
	got := make([]byte, 5)
	m.Read(100, got)
	if !bytes.Equal(got, data) {
		t.Errorf("Read = %v, want %v", got, data)
	}
}

func TestMemoryCrossPage(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3)
	data := []byte{10, 20, 30, 40, 50, 60}
	m.Write(addr, data)
	got := make([]byte, 6)
	m.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Errorf("cross-page Read = %v, want %v", got, data)
	}
}

func TestMemoryScalars(t *testing.T) {
	m := NewMemory()
	m.WriteU64(8, 0xdeadbeefcafef00d)
	if got := m.ReadU64(8); got != 0xdeadbeefcafef00d {
		t.Errorf("ReadU64 = %#x", got)
	}
	m.WriteUint(100, 2, 0xabcd)
	if got := m.ReadUint(100, 2); got != 0xabcd {
		t.Errorf("ReadUint16 = %#x", got)
	}
	if got := m.ReadUint(100, 4); got != 0xabcd {
		t.Errorf("ReadUint32 over 16-bit write = %#x", got)
	}
	m.StoreByte(7, 0x5a)
	if m.LoadByte(7) != 0x5a || m.LoadByte(6) != 0 {
		t.Error("byte accessors wrong")
	}
}

// Property: Memory behaves as a flat array under random writes/reads.
func TestMemoryOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMemory()
		oracle := make([]byte, 3*pageSize)
		for op := 0; op < 300; op++ {
			addr := uint64(r.Intn(len(oracle) - 70))
			n := 1 + r.Intn(64)
			if r.Intn(2) == 0 {
				data := make([]byte, n)
				r.Read(data)
				m.Write(addr, data)
				copy(oracle[addr:], data)
			} else {
				got := make([]byte, n)
				m.Read(addr, got)
				if !bytes.Equal(got, oracle[addr:int(addr)+n]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCacheGeometryErrors(t *testing.T) {
	cases := [][3]int{
		{0, 64, 8},       // zero size
		{1024, 0, 8},     // zero line
		{1024, 64, 0},    // zero ways
		{1024, 48, 2},    // non power-of-two line
		{96 * 64, 64, 2}, // 48 sets: not a power of two
		{1000, 64, 4},    // does not divide
	}
	for _, c := range cases {
		if _, err := NewCache(c[0], c[1], c[2]); err == nil {
			t.Errorf("NewCache(%v) should fail", c)
		}
	}
}

func TestCacheHitMiss(t *testing.T) {
	c, err := NewCache(8*64, 64, 2) // 4 sets, 2 ways
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0) {
		t.Error("cold access should miss")
	}
	if !c.Access(0) || !c.Access(63) {
		t.Error("second access to same line should hit")
	}
	if c.Access(64) {
		t.Error("different line should miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Errorf("hits=%d misses=%d, want 2, 2", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(2*64, 64, 2) // 1 set, 2 ways
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0 * 64)
	c.Access(1 * 64)
	c.Access(0 * 64) // line 0 now MRU
	c.Access(2 * 64) // evicts line 1
	if !c.Contains(0 * 64) {
		t.Error("MRU line evicted")
	}
	if c.Contains(1 * 64) {
		t.Error("LRU line not evicted")
	}
	if !c.Contains(2 * 64) {
		t.Error("new line not resident")
	}
}

// newSystem builds a memory system over a fresh Memory and a private
// DRAM channel.
func newSystem(cfg SysConfig) (*System, error) {
	return NewSystemShared(cfg, NewMemory(), NewDRAM(cfg.MissInterval))
}

func TestSystemHitVsMissLatency(t *testing.T) {
	cfg := DefaultSysConfig()
	s, err := newSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, ok := s.Request(0, 0, false, 64)
	if !ok {
		t.Fatal("first request rejected")
	}
	if r1 != cfg.HitLatency+cfg.MissLatency {
		t.Errorf("cold read ready at %d, want %d", r1, cfg.HitLatency+cfg.MissLatency)
	}
	r2, ok := s.Request(1, 0, false, 64)
	if !ok {
		t.Fatal("second request rejected")
	}
	if r2 != 1+cfg.HitLatency {
		t.Errorf("warm read ready at %d, want %d", r2, 1+cfg.HitLatency)
	}
}

func TestSystemAcceptBandwidth(t *testing.T) {
	cfg := DefaultSysConfig()
	cfg.AcceptPerCyc = 1
	s, _ := newSystem(cfg)
	if _, ok := s.Request(5, 0, false, 64); !ok {
		t.Fatal("request rejected")
	}
	if _, ok := s.Request(5, 64, false, 64); ok {
		t.Error("second request in one cycle should be rejected")
	}
	if _, ok := s.Request(6, 64, false, 64); !ok {
		t.Error("request next cycle should be accepted")
	}
}

func TestSystemMissBandwidthSerializes(t *testing.T) {
	cfg := DefaultSysConfig()
	cfg.CacheBytes = 0 // every access is DRAM
	cfg.MissInterval = 10
	s, _ := newSystem(cfg)
	r1, _ := s.Request(0, 0, false, 64)
	r2, _ := s.Request(1, 4096, false, 64)
	if r2 < r1+cfg.MissInterval-1 {
		t.Errorf("misses not serialized: %d then %d", r1, r2)
	}
}

func TestSystemMSHRLimit(t *testing.T) {
	cfg := DefaultSysConfig()
	cfg.CacheBytes = 0
	cfg.MaxInflight = 2
	cfg.MissInterval = 1
	s, _ := newSystem(cfg)
	if _, ok := s.Request(0, 0, false, 64); !ok {
		t.Fatal("first rejected")
	}
	if _, ok := s.Request(1, 4096, false, 64); !ok {
		t.Fatal("second rejected")
	}
	if _, ok := s.Request(2, 8192, false, 64); ok {
		t.Error("third concurrent miss should be rejected by MSHR limit")
	}
	// After the first completes, a new miss is accepted.
	late := cfg.HitLatency + cfg.MissLatency + 10
	if _, ok := s.Request(late, 8192, false, 64); !ok {
		t.Error("miss after retirement should be accepted")
	}
}

func TestSystemWriteCounts(t *testing.T) {
	s, _ := newSystem(DefaultSysConfig())
	s.Request(0, 0, true, 32)
	s.Request(1, 64, false, 64)
	if s.Writes != 1 || s.Reads != 1 || s.BytesWritten != 32 || s.BytesRead != 64 {
		t.Errorf("stats: %d/%d reads/writes, %d/%d bytes",
			s.Reads, s.Writes, s.BytesRead, s.BytesWritten)
	}
}

func TestSystemConfigValidation(t *testing.T) {
	bad := DefaultSysConfig()
	bad.LineBytes = 0
	if _, err := newSystem(bad); err == nil {
		t.Error("invalid config accepted")
	}
	bad = DefaultSysConfig()
	bad.CacheBytes = 1000 // indivisible geometry
	if _, err := newSystem(bad); err == nil {
		t.Error("invalid cache geometry accepted")
	}
}
