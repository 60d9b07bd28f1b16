package backend

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"aimes/internal/core"
	"aimes/internal/sim"
	"aimes/internal/site"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// jsonCodec is the fuzz oracle: the plain field-named JSON encoding of the
// same request/response structs, written with no wire-specific code at
// all. The binary codec must decode to exactly what a JSON round trip
// yields, so its hand-built layout can never silently drop or mangle a
// field.
type jsonCodec struct{}

func (jsonCodec) AppendRequest(dst []byte, req *request) ([]byte, error) {
	return appendJSONValue(dst, req)
}

func (jsonCodec) DecodeRequest(data []byte, req *request) error {
	return json.Unmarshal(data, req)
}

func (jsonCodec) AppendResponse(dst []byte, resp *response) ([]byte, error) {
	return appendJSONValue(dst, resp)
}

func (jsonCodec) DecodeResponse(data []byte, resp *response) error {
	return json.Unmarshal(data, resp)
}

func appendJSONValue(dst []byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	return append(dst, body...), err
}

// payloadCodec is what the round-trip helpers need of a codec; both the
// binary codec and the JSON oracle satisfy it.
type payloadCodec interface {
	AppendRequest(dst []byte, req *request) ([]byte, error)
	DecodeRequest(data []byte, req *request) error
	AppendResponse(dst []byte, resp *response) ([]byte, error)
	DecodeResponse(data []byte, resp *response) error
}

// roundTripRequest pushes in through one codec and returns the decoded copy.
func roundTripRequest(t *testing.T, c payloadCodec, in *request) request {
	t.Helper()
	buf, err := c.AppendRequest(nil, in)
	if err != nil {
		t.Fatalf("%T: encode request: %v", c, err)
	}
	var out request
	if err := c.DecodeRequest(buf, &out); err != nil {
		t.Fatalf("%T: decode request: %v", c, err)
	}
	return out
}

func roundTripResponse(t *testing.T, c payloadCodec, in *response) response {
	t.Helper()
	buf, err := c.AppendResponse(nil, in)
	if err != nil {
		t.Fatalf("%T: encode response: %v", c, err)
	}
	var out response
	if err := c.DecodeResponse(buf, &out); err != nil {
		t.Fatalf("%T: decode response: %v", c, err)
	}
	return out
}

// FuzzCodecRoundTrip holds the binary wire codec to its oracle: for any
// frame value, decode(encode(v)) through the binary codec yields exactly
// what a plain JSON round trip does — so the compact layout is a
// wire-efficiency choice, never a semantics choice. The fuzzer drives every
// frame shape: requests with and without structured payloads, responses
// with trace/done event batches, and the error paths.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint64(1), "step", int64(64), int64(3), "deadline", "t", "s0-j7",
		"pilot.stampede", "PENDING_ACTIVE", "cores=128", int64(1234567890),
		"", "", int64(5), true, int64(99), int64(7), byte(3))
	f.Add(uint64(1<<40), "enact", int64(-1), int64(-9), "", "d", "",
		"unit.0042", "EXECUTING", "", int64(-50), "backend: boom",
		"no job 99 on this shard", int64(0), false, int64(-1), int64(0), byte(1))
	f.Add(uint64(0), "", int64(0), int64(0), "  ", "x", "ns",
		"", "", "\x00\x01\xc3\xa9", int64(1), "é", "ø",
		int64(1<<31), true, int64(1<<62), int64(-1<<62), byte(2))
	f.Fuzz(func(t *testing.T, id uint64, op string, maxv, key int64,
		reason, kind, ns, entity, state, detail string, tns int64,
		errS, diag string, fired int64, drained bool,
		seed, now int64, blobs byte) {
		// encoding/json replaces invalid UTF-8 with U+FFFD; the binary codec
		// carries raw bytes. The oracle comparison therefore only holds for
		// valid strings — which is all the protocol ever sends.
		for _, s := range []string{op, reason, kind, ns, entity, state, detail, errS, diag} {
			if !utf8.ValidString(s) {
				t.Skip("invalid UTF-8 is normalized by the JSON oracle")
			}
		}
		req := &request{ID: id, Op: op, Max: int(maxv), Key: int(key), Reason: reason}
		if blobs&1 != 0 {
			// The structured payloads travel as JSON blobs inside the binary
			// codec, so fixed-but-rich values exercise them fully; the fuzzed
			// scalars cover the fields with hand-built binary encodings.
			w, err := skeleton.Generate(skeleton.BagOfTasks(3, skeleton.Constant(30)), 1)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := siteToWire(site.DefaultTestbed()[0])
			if err != nil {
				t.Fatal(err)
			}
			req.Init = &initConfig{Shard: int(key), Seed: seed, Sites: []wireSite{ws}}
			req.Desc = &Descriptor{
				Key: int(key), MigratedFrom: -1,
				Descriptor: core.Descriptor{
					Workload: w,
					Config:   core.StrategyConfig{Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: 2},
				},
			}
			req.Report = &core.Report{TTC: time.Duration(tns), UnitsDone: int(fired)}
			req.Workload = w
			req.Config = &core.StrategyConfig{Pilots: 3, AutoPilots: drained}
			req.Chaos = &ChaosEvent{
				After: time.Duration(tns), Action: ChaosSurge, Target: reason,
				WaitFactor: float64(fired), Jobs: int(maxv), Duration: time.Duration(now),
			}
		}
		jr := roundTripRequest(t, jsonCodec{}, req)
		br := roundTripRequest(t, newBinaryCodec(), req)
		if !reflect.DeepEqual(jr, br) {
			t.Fatalf("request diverged from the JSON oracle:\njson:   %+v\nbinary: %+v", jr, br)
		}

		resp := &response{
			ID: id, Err: errS, Diag: diag,
			Fired: int(fired), Drained: drained, Seed: seed, Now: now,
		}
		if blobs&2 != 0 {
			rec := trace.WireRecord{Time: sim.Time(tns), Entity: entity, State: state, Detail: detail}
			resp.Events = []wireEvent{
				{Kind: kind, Key: int(key), NS: ns, Rec: &rec},
				{Kind: eventDone, Key: int(key), Report: &core.Report{TTC: time.Duration(now), UnitsDone: int(fired)}},
				{Kind: eventTrace, Key: 0},
			}
			resp.Enacted = &Enacted{Namespace: ns, Strategy: core.Strategy{Pilots: 2, Resources: []string{"stampede", "gordon"}}}
			resp.Strategy = &core.Strategy{Binding: core.LateBinding, PilotWalltime: time.Duration(tns)}
		}
		jresp := roundTripResponse(t, jsonCodec{}, resp)
		bresp := roundTripResponse(t, newBinaryCodec(), resp)
		if !reflect.DeepEqual(jresp, bresp) {
			t.Fatalf("response diverged from the JSON oracle:\njson:   %+v\nbinary: %+v", jresp, bresp)
		}
	})
}

// FuzzHostFrame feeds arbitrary payloads to the worker host's serve loop,
// which decodes untrusted binary from the very first frame: once as frame 1
// and once after a valid init. The host must never panic. A payload that is
// not a binary request ends the session with an error, after answering every
// frame before it; any payload that decodes is answered with a well-formed
// response carrying its ID.
func FuzzHostFrame(f *testing.F) {
	seed := func(req *request) []byte {
		body, err := newBinaryCodec().AppendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	jsonInit, err := jsonCodec{}.AppendRequest(nil, &request{ID: 1, Op: opInit, Init: &initConfig{Seed: 1, DefTestb: true}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed(&request{ID: 1, Op: opInit, Init: &initConfig{Seed: 1, DefTestb: true}}), false)
	f.Add(seed(&request{ID: 2, Op: opStep, Max: 64}), true)
	f.Add(seed(&request{ID: 2, Op: opPing}), false)
	f.Add(seed(&request{ID: 2, Op: opCancel, Key: 3, Reason: "deadline"}), true)
	f.Add(jsonInit, false)
	f.Add([]byte("????"), true)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, payload []byte, afterInit bool) {
		var in, out bytes.Buffer
		var ids []uint64
		if afterInit {
			if err := writeFrame(&in, &request{ID: 1, Op: opInit, Init: &initConfig{Seed: 1, DefTestb: true}}); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, 1)
		}
		if err := writePayload(&in, payload); err != nil {
			t.Fatal(err)
		}
		var req request
		decodeErr := newBinaryCodec().DecodeRequest(payload, &req)
		if decodeErr == nil {
			ids = append(ids, req.ID)
		}

		serveErr := serveStream(&in, &out, 0, nil)
		if decodeErr != nil && serveErr == nil {
			t.Fatalf("undecodable frame (%v) did not end the session with an error", decodeErr)
		}
		if decodeErr == nil && serveErr != nil {
			t.Fatalf("decodable %q frame ended the session: %v", req.Op, serveErr)
		}
		// Every frame the host wrote is a well-formed binary response, in
		// request order; an undecodable frame got none.
		for i, id := range ids {
			var resp response
			if err := readFrame(&out, &resp); err != nil {
				t.Fatalf("response to request %d: %v", id, err)
			}
			if resp.ID != id {
				t.Fatalf("response %d for request %d", resp.ID, id)
			}
			if i == 0 && afterInit && resp.Err != "" {
				t.Fatalf("valid init refused: %s", resp.Err)
			}
		}
		if out.Len() != 0 {
			t.Fatalf("%d unexpected trailing bytes after the responses", out.Len())
		}
	})
}
