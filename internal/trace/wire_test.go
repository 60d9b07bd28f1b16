package trace

import (
	"testing"

	"aimes/internal/sim"
)

func TestWireRecordRoundTrip(t *testing.T) {
	cases := []Record{
		{Time: 0, Entity: "em", State: "ENACTING", Detail: "late binding"},
		{Time: sim.Time(1234567890), Entity: "pilot.stampede.s0-j1-1", State: "ACTIVE"},
		{Time: sim.Forever, Entity: "unit.t0001", State: "DONE", Detail: "with, comma"},
		{Time: -5, Entity: "", State: ""},
	}
	var buf []byte
	for _, rec := range cases {
		buf = WireRecord(rec).AppendWire(buf)
	}
	buf = append(buf, 0xAA) // trailing bytes belong to the caller
	for _, rec := range cases {
		var back WireRecord
		rest, err := back.DecodeWire(buf, nil)
		if err != nil {
			t.Fatalf("decode %+v: %v", rec, err)
		}
		if back.Record() != rec {
			t.Fatalf("round trip %+v → %+v", rec, back.Record())
		}
		buf = rest
	}
	if len(buf) != 1 || buf[0] != 0xAA {
		t.Fatalf("decoder consumed past the last record: %x left", buf)
	}
}

func TestWireRecordRejectsMalformed(t *testing.T) {
	full := WireRecord{Time: 7, Entity: "unit.t0001", State: "DONE", Detail: "ok"}.AppendWire(nil)
	// Every strict prefix is truncated somewhere: in the time varint or in
	// one of the three length-prefixed strings.
	for n := 0; n < len(full); n++ {
		var r WireRecord
		if _, err := r.DecodeWire(full[:n], nil); err == nil {
			t.Fatalf("truncated wire record %x (%d of %d bytes) decoded without error", full[:n], n, len(full))
		}
	}
	// A length prefix claiming more bytes than remain.
	var r WireRecord
	if _, err := r.DecodeWire([]byte{0x02, 0x7f, 'e'}, nil); err == nil {
		t.Fatal("overlong entity length decoded without error")
	}
}
