package cgra

import (
	"io"
	"reflect"
	"testing"

	"softbrain/internal/dfg"
)

// handSchedule builds a tiny valid schedule by hand for encoding tests
// (the sched package owns the real compiler; its tests cover generated
// schedules end to end).
func handSchedule(t *testing.T) *Schedule {
	t.Helper()
	b := dfg.NewBuilder("tiny")
	a := b.Input("A", 1)
	bb := b.Input("B", 1)
	sum := b.N(dfg.Add(64), a.W(0), bb.W(0))
	b.Output("O", sum)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	f := NewFabric(2, 2, dfg.FUAlu)
	s := &Schedule{
		Fabric:   f,
		Graph:    g,
		Place:    []int{1},
		NodeFire: []int{2},
		Operand: [][]Conn{{
			{Val: PortVal(0, 0), Path: []int{1}, Delay: 0},
			{Val: PortVal(1, 0), Path: []int{0, 1}, Delay: 0},
		}},
		OutConn:    [][]Conn{{{Val: NodeVal(0), Path: []int{1, 3}, Delay: 0}}},
		OutArrive:  []int{5},
		Depth:      5,
		InPortMap:  []int{0, 1},
		OutPortMap: []int{0},
	}
	// Fix delay matching: A arrives at 0+1+0=1, B at 0+2+0=2; fire at 2
	// needs A delayed by 1.
	s.Operand[0][0].Delay = 1
	if err := s.Validate(); err != nil {
		t.Fatalf("hand schedule invalid: %v", err)
	}
	return s
}

func TestBitstreamRoundTrip(t *testing.T) {
	s := handSchedule(t)
	blob := EncodeConfig(s)
	if len(blob) == 0 {
		t.Fatal("empty bitstream")
	}
	got, err := DecodeConfig(s.Fabric, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.Name != "tiny" || len(got.Graph.Nodes) != 1 {
		t.Errorf("graph lost: %+v", got.Graph)
	}
	if !reflect.DeepEqual(got.Place, s.Place) ||
		!reflect.DeepEqual(got.NodeFire, s.NodeFire) ||
		!reflect.DeepEqual(got.OutArrive, s.OutArrive) ||
		got.Depth != s.Depth {
		t.Error("schedule fields lost in round trip")
	}
	if !reflect.DeepEqual(got.Operand, s.Operand) || !reflect.DeepEqual(got.OutConn, s.OutConn) {
		t.Error("routing lost in round trip")
	}
	if !reflect.DeepEqual(got.InPortMap, s.InPortMap) || !reflect.DeepEqual(got.OutPortMap, s.OutPortMap) {
		t.Error("port maps lost in round trip")
	}
	// The decoded schedule itself validates.
	if err := got.Validate(); err != nil {
		t.Errorf("decoded schedule invalid: %v", err)
	}
}

func TestBitstreamRejectsGarbage(t *testing.T) {
	f := NewFabric(2, 2, dfg.FUAlu)
	if _, err := DecodeConfig(f, nil); err == nil {
		t.Error("empty blob accepted")
	}
	if _, err := DecodeConfig(f, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncations at every prefix must error, never panic.
	blob := EncodeConfig(handSchedule(t))
	for n := 0; n < len(blob); n += 7 {
		if _, err := DecodeConfig(f, blob[:n]); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
	// Corrupted bytes must error or decode to a validating schedule,
	// never panic.
	for i := 4; i < len(blob); i += 11 {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0xff
		if s, err := DecodeConfig(f, mut); err == nil {
			if err := s.Validate(); err != nil {
				t.Errorf("corruption at byte %d decoded to invalid schedule", i)
			}
		}
	}
}

// TestBitReaderEOF checks that a read past the end fails as
// encoding/binary's does: io.EOF with no bytes left, io.ErrUnexpectedEOF
// with part of a word left.
func TestBitReaderEOF(t *testing.T) {
	r := &bitReader{b: []byte{1, 0, 0, 0, 2, 0}}
	if v, err := r.u32(); v != 1 || err != nil {
		t.Fatalf("u32 = %d, %v; want 1, nil", v, err)
	}
	if _, err := r.u32(); err != io.ErrUnexpectedEOF {
		t.Errorf("u32 over 2 bytes: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := r.u64(); err != io.EOF {
		t.Errorf("u64 at the end: %v, want io.EOF", err)
	}
	if s, err := (&bitReader{b: []byte{0, 0, 0, 0}}).str(); s != "" || err != nil {
		t.Errorf("empty str = %q, %v; want \"\", nil", s, err)
	}
	if _, err := (&bitReader{b: []byte{3, 0, 0, 0, 'a'}}).str(); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated str: %v, want io.ErrUnexpectedEOF", err)
	}
}
