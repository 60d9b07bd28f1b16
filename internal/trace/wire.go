package trace

import (
	"encoding/binary"
	"fmt"

	"aimes/internal/sim"
)

// WireRecord is Record in its worker-wire form. Trace records dominate the
// byte volume of the worker protocol — every pilot and unit transition
// crosses the pipe — so the binary form (AppendWire/DecodeWire) carries no
// per-record field names. Its JSON encoding is Record's.
type WireRecord Record

// Record converts back to the canonical struct form.
func (r WireRecord) Record() Record { return Record(r) }

// AppendWire appends the record in its binary wire form: a zigzag-varint
// time followed by length-prefixed entity, state and detail strings (detail
// keeps its length prefix even when empty, so the frame stays
// self-describing). This is the hot element of the worker protocol's binary
// codec — trace records dominate the byte volume of every Step response —
// so the encoding carries no field names, no quoting, and no per-record
// framing beyond the four fields themselves.
func (r WireRecord) AppendWire(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(r.Time))
	dst = binary.AppendUvarint(dst, uint64(len(r.Entity)))
	dst = append(dst, r.Entity...)
	dst = binary.AppendUvarint(dst, uint64(len(r.State)))
	dst = append(dst, r.State...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Detail)))
	dst = append(dst, r.Detail...)
	return dst
}

// DecodeWire decodes one binary wire record from the front of data,
// returning the unconsumed remainder. intern, when non-nil, converts the
// entity and state byte slices to strings — the decode side of the worker
// protocol passes a deduplicating interner, because a shard emits the same
// few dozen entity and state strings millions of times. Detail is never
// interned (it is rare and often unique).
func (r *WireRecord) DecodeWire(data []byte, intern func([]byte) string) ([]byte, error) {
	if intern == nil {
		intern = func(b []byte) string { return string(b) }
	}
	ns, n := binary.Varint(data)
	if n <= 0 {
		return nil, fmt.Errorf("trace: wire record: truncated time varint")
	}
	data = data[n:]
	r.Time = sim.Time(ns)
	take := func(field string) ([]byte, error) {
		l, n := binary.Uvarint(data)
		if n <= 0 || l > uint64(len(data)-n) {
			return nil, fmt.Errorf("trace: wire record: truncated %s", field)
		}
		b := data[n : n+int(l)]
		data = data[n+int(l):]
		return b, nil
	}
	b, err := take("entity")
	if err != nil {
		return nil, err
	}
	r.Entity = intern(b)
	if b, err = take("state"); err != nil {
		return nil, err
	}
	r.State = intern(b)
	if b, err = take("detail"); err != nil {
		return nil, err
	}
	r.Detail = string(b)
	return data, nil
}
