package wire

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/isa"
	"softbrain/internal/progen"
)

// genProgram builds a random but well-formed program from a progen
// seed: the addpair configuration plus a generated command sequence,
// with a couple of host delays interleaved.
func genProgram(t testing.TB, seed int64) *core.Program {
	t.Helper()
	cfg := core.DefaultConfig()
	p, ports, err := progen.Addpair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i, c := range progen.Commands(rng, ports) {
		if i%3 == 0 {
			p.Delay(uint64(1 + rng.Intn(40)))
		}
		p.Emit(c)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	return p
}

// sameProgram compares two programs structurally: name, configuration
// blobs, and the full trace.
func sameProgram(a, b *core.Program) error {
	if a.Name != b.Name {
		return errors.New("name differs")
	}
	if !reflect.DeepEqual(a.Configs, b.Configs) {
		return errors.New("configs differ")
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		return errors.New("trace differs")
	}
	return nil
}

func TestRoundTripGenerated(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := genProgram(t, seed)
		data, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		q, err := DecodeProgram(data)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if err := sameProgram(p, q); err != nil {
			t.Fatalf("seed %d: round trip: %v", seed, err)
		}
		// The decoded program must be loadable: the binary ISA round
		// trip at Load time is the final arbiter of encodability.
		cl, err := core.NewCluster(core.DefaultConfig(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Units[0].Load(q); err != nil {
			t.Fatalf("seed %d: loading decoded program: %v", seed, err)
		}
	}
}

// FuzzProgramRoundTrip is the serializer round-trip fuzz the server
// boundary relies on: for any generated program, encode(decode(x))
// must reproduce x exactly.
func FuzzProgramRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		p := genProgram(t, seed)
		data, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		q, err := DecodeProgram(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if err := sameProgram(p, q); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDecodeProgram throws raw bytes at the strict decoder: it must
// never panic, and anything it accepts must re-encode and re-decode to
// the same program (decode is idempotent over its own output).
func FuzzDecodeProgram(f *testing.F) {
	p := genProgram(f, 1)
	good, err := EncodeProgram(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"name":"x","trace":[{"cmd":{"op":"SD_Barrier_All"}}]}`))
	f.Add([]byte(`{"name":"x","trace":[{"delay":3}]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeProgram(data)
		if err != nil {
			var we *Error
			if !errors.As(err, &we) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		re, err := EncodeProgram(q)
		if err != nil {
			t.Fatalf("accepted program failed to re-encode: %v", err)
		}
		r, err := DecodeProgram(re)
		if err != nil {
			t.Fatalf("re-encoded program rejected: %v", err)
		}
		if err := sameProgram(q, r); err != nil {
			t.Fatalf("decode not idempotent: %v", err)
		}
	})
}

func TestStrictRejections(t *testing.T) {
	cases := []struct {
		name string
		body string
		code ErrCode
	}{
		{"unknown top-level field", `{"name":"x","trace":[],"extra":1}`, ErrSyntax},
		{"unknown cmd field", `{"name":"x","trace":[{"cmd":{"op":"SD_Barrier_All","bogus":1}}]}`, ErrSyntax},
		{"inapplicable field", `{"name":"x","trace":[{"cmd":{"op":"SD_Barrier_All","count":4}}]}`, ErrUnknownField},
		{"unknown op", `{"name":"x","trace":[{"cmd":{"op":"SD_Nope"}}]}`, ErrUnknownOp},
		{"both cmd and delay", `{"name":"x","trace":[{"delay":3,"cmd":{"op":"SD_Barrier_All"}}]}`, ErrBadValue},
		{"empty op", `{"name":"x","trace":[{}]}`, ErrMissingField},
		{"missing pattern", `{"name":"x","trace":[{"cmd":{"op":"SD_Mem_Port","dst":1}}]}`, ErrMissingField},
		{"bad elem", `{"name":"x","trace":[{"cmd":{"op":"SD_Const_Port","value":1,"elem":3,"count":1,"dst":1}}]}`, ErrBadValue},
		{"config below config space", `{"name":"x","configs":[{"addr":64,"data":"aGk="}],"trace":[]}`, ErrBadValue},
		{"trailing data", `{"name":"x","trace":[]} {"again":true}`, ErrSyntax},
	}
	for _, tc := range cases {
		_, err := DecodeProgram([]byte(tc.body))
		var we *Error
		if !errors.As(err, &we) {
			t.Errorf("%s: err = %v, want a typed *wire.Error", tc.name, err)
			continue
		}
		if we.Code != tc.code {
			t.Errorf("%s: code = %s, want %s (%v)", tc.name, we.Code, tc.code, we)
		}
	}
}

func TestDecodeLimits(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"name":"big","trace":[`)
	for i := 0; i <= MaxTraceOps; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"delay":1}`)
	}
	sb.WriteString(`]}`)
	_, err := DecodeProgram([]byte(sb.String()))
	var we *Error
	if !errors.As(err, &we) || we.Code != ErrTooLarge {
		t.Fatalf("oversized trace: err = %v, want too-large", err)
	}

	long := strings.Repeat("n", MaxNameBytes+1)
	_, err = DecodeProgram([]byte(`{"name":"` + long + `","trace":[]}`))
	if !errors.As(err, &we) || we.Code != ErrTooLarge {
		t.Fatalf("oversized name: err = %v, want too-large", err)
	}
}

func TestConfigBuild(t *testing.T) {
	for _, preset := range []string{"", "default", "dnn"} {
		cfg, err := Config{Preset: preset}.Build()
		if err != nil {
			t.Fatalf("preset %q: %v", preset, err)
		}
		if cfg.Fabric == nil {
			t.Fatalf("preset %q: no fabric", preset)
		}
	}
	if _, err := (Config{Preset: "exotic"}).Build(); err == nil {
		t.Fatal("unknown preset accepted")
	}
	var we *Error
	_, err := Config{Faults: &FaultSpec{Profile: "nope"}}.Build()
	if !errors.As(err, &we) || we.Code != ErrBadValue {
		t.Fatalf("unknown fault profile: err = %v, want bad-value", err)
	}
	cfg, err := Config{Preset: "default", WatchdogCycles: 5000, Faults: &FaultSpec{Profile: "delay", Seed: 7}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WatchdogCycles != 5000 || cfg.Faults == nil {
		t.Fatalf("knobs not applied: %+v", cfg)
	}
	// The wire config survives its own JSON round trip.
	wc := FromConfig(cfg, "default")
	wc.Faults = &FaultSpec{Profile: "delay", Seed: 7}
	data, err := json.Marshal(wc)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.WatchdogCycles != 5000 || back.Faults == nil || back.Faults.Seed != 7 {
		t.Fatalf("config round trip lost knobs: %+v", back)
	}
}

// TestBarrierEncodable pins the one-command corner: a trace of only
// barriers has no patterns, ports or sizes, and must still round-trip.
func TestBarrierEncodable(t *testing.T) {
	p := core.NewProgram("bars")
	p.Emit(isa.BarrierScratchRd{})
	p.Emit(isa.BarrierScratchWr{})
	p.Emit(isa.BarrierAll{})
	data, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameProgram(p, q); err != nil {
		t.Fatal(err)
	}
}
