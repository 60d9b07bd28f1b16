package backend

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testConn adapts an io.Pipe pair to the Conn seam for in-memory client
// tests against scripted servers.
type testConn struct {
	r *io.PipeReader
	w *io.PipeWriter
}

func (c *testConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *testConn) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c *testConn) CloseWrite() error           { return c.w.Close() }
func (c *testConn) Close() error                { c.w.Close(); return c.r.Close() }
func (c *testConn) Kill() error {
	c.r.CloseWithError(errors.New("killed"))
	c.w.CloseWithError(errors.New("killed"))
	return nil
}

// transportFunc adapts a dial function to the Transport seam.
type transportFunc func(shard int, onDeath func(error)) (Conn, error)

func (f transportFunc) Dial(shard int, onDeath func(error)) (Conn, error) {
	return f(shard, onDeath)
}

// pipeWorker wires a client Conn to a live serve loop over in-memory pipes
// — the full protocol stack with no process and no socket.
func pipeWorker(t *testing.T) Transport {
	t.Helper()
	return transportFunc(func(int, func(error)) (Conn, error) {
		cr, sw := io.Pipe() // client reads ← server writes
		sr, cw := io.Pipe() // server reads ← client writes
		go func() {
			if err := serveStream(sr, sw, 0, severStreams(sr, sw)); err != nil {
				sw.CloseWithError(err)
				return
			}
			sw.Close()
		}()
		return &testConn{r: cr, w: cw}, nil
	})
}

// TestConnectNegotiatesBinary drives the real client against the real serve
// loop in-memory: both accepted codec names ("" and CodecBinary) speak
// binary from the init frame on and work end to end, while any other name,
// "json" included, fails Connect before dialing, naming the one codec the
// wire speaks.
func TestConnectNegotiatesBinary(t *testing.T) {
	for _, choice := range []string{"", CodecBinary} {
		w, err := Connect(pipeWorker(t), WorkerOptions{Codec: choice}, Config{Shard: 2, Seed: 7}, &collectSink{}, nil)
		if err != nil {
			t.Fatalf("codec %q: %v", choice, err)
		}
		if seed, err := w.AppSeed(); err != nil || seed == 0 {
			t.Fatalf("codec %q: AppSeed = %d, %v", choice, seed, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("codec %q: close: %v", choice, err)
		}
	}
	for _, choice := range []string{"json", "yaml"} {
		dialed := false
		tr := transportFunc(func(int, func(error)) (Conn, error) {
			dialed = true
			return nil, errors.New("unreachable")
		})
		_, err := Connect(tr, WorkerOptions{Codec: choice}, Config{Shard: 0, Seed: 1}, &collectSink{}, nil)
		if err == nil || !strings.Contains(err.Error(), choice) || !strings.Contains(err.Error(), CodecBinary) {
			t.Fatalf("codec %q: Connect error %v does not name the codec and %q", choice, err, CodecBinary)
		}
		if dialed {
			t.Fatalf("codec %q: Connect dialed before refusing the codec", choice)
		}
	}
}

// scriptedServer answers the init exchange like a real worker (a binary
// success response) and then hands the stream to script.
func scriptedServer(t *testing.T, script func(r io.Reader, w *io.PipeWriter)) Transport {
	t.Helper()
	return transportFunc(func(int, func(error)) (Conn, error) {
		cr, sw := io.Pipe()
		sr, cw := io.Pipe()
		go func() {
			var req request
			if err := readFrame(sr, &req); err != nil || req.Op != opInit {
				sw.CloseWithError(fmt.Errorf("scripted server: bad init: %v", err))
				return
			}
			if err := writeFrame(sw, &response{ID: req.ID}); err != nil {
				return
			}
			script(sr, sw)
		}()
		return &testConn{r: cr, w: cw}, nil
	})
}

// TestFrameCorruptionFailsShardNotProcess is the containment half of the
// framing contract: a worker that answers with a truncated, oversized or
// undecodable frame, or in a codec other than the wire's, kills that
// session — the call errors, later calls fail fast, the death callback
// fires once so the environment fails the shard's jobs — and nothing
// panics or exits the parent process.
func TestFrameCorruptionFailsShardNotProcess(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(w *io.PipeWriter, req *request)
		want    string
	}{
		{
			// Header promises 100 bytes, the stream ends after 10.
			name: "truncated",
			corrupt: func(w *io.PipeWriter, _ *request) {
				w.Write([]byte{0, 0, 0, 100})
				w.Write(make([]byte, 10))
				w.Close()
			},
			want: "closed its connection",
		},
		{
			// Header promises more than the frame limit allows.
			name: "oversized",
			corrupt: func(w *io.PipeWriter, _ *request) {
				w.Write([]byte{0x7F, 0xFF, 0xFF, 0xFF})
			},
			want: "exceeds",
		},
		{
			// A full frame whose payload is not a binary response.
			name: "garbage",
			corrupt: func(w *io.PipeWriter, _ *request) {
				w.Write([]byte{0, 0, 0, 4})
				w.Write([]byte("????"))
			},
			want: "decoding frame",
		},
		{
			// A peer answering a well-formed response in JSON instead of
			// the wire's codec.
			name: "json-peer",
			corrupt: func(w *io.PipeWriter, req *request) {
				body, _ := jsonCodec{}.AppendResponse(nil, &response{ID: req.ID, Fired: 3, Drained: true})
				writePayload(w, body)
			},
			want: "decoding frame",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var deaths atomic.Int32
			onDeath := func(error) { deaths.Add(1) }
			tr := scriptedServer(t, func(r io.Reader, w *io.PipeWriter) {
				var req request
				if err := readFrame(r, &req); err != nil {
					return
				}
				tc.corrupt(w, &req)
			})
			wk, err := Connect(tr, WorkerOptions{}, Config{Shard: 3, Seed: 1}, &collectSink{}, onDeath)
			if err != nil {
				t.Fatalf("connect: %v", err)
			}
			_, _, err = wk.Step(64)
			if err == nil {
				t.Fatal("corrupt frame answered a Step without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			// The session is dead, not wedged: later calls fail fast with the
			// same cause instead of touching the broken stream.
			if _, err2 := wk.AppSeed(); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("post-corruption call: %v, want the dead-session error %q", err2, err)
			}
			// The death callback (the environment's fail-the-shard hook) fired
			// exactly once, asynchronously.
			deadline := time.Now().Add(5 * time.Second)
			for deaths.Load() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := deaths.Load(); got != 1 {
				t.Fatalf("death callback ran %d times, want 1", got)
			}
		})
	}
}

// TestTCPHandshake covers the TCP transport's admission contract: a wrong
// secret is rejected with a diagnosis, protocol garbage never reaches a
// shard, an authenticated peer that frames its init in JSON ends only its
// own connection, and a correct secret yields a working worker — all
// against one host listener that survives every rejected attempt.
func TestTCPHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Buffered and sent to without blocking, so logging never stalls the
	// host; the test reads only the first few lines.
	logs := make(chan string, 64)
	go ServeListener(ln, ServeConfig{Secret: "right-secret", Logf: func(format string, args ...any) {
		select {
		case logs <- fmt.Sprintf(format, args...):
		default:
		}
	}})
	addr := ln.Addr().String()

	if _, err := (&TCPTransport{Addr: addr, Secret: "wrong-secret", DialTimeout: 5 * time.Second}).Dial(0, nil); err == nil {
		t.Fatal("wrong secret dialed successfully")
	} else if !strings.Contains(err.Error(), "secret") {
		t.Fatalf("wrong-secret error not diagnostic: %v", err)
	}

	// A non-protocol client (port scanner, stray HTTP): the host drops it.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("host answered protocol garbage")
	}
	nc.Close()

	// An authenticated peer whose init is JSON-framed: the host cannot
	// decode it, so that connection's shard fails and the connection
	// closes without an answer.
	jc, err := (&TCPTransport{Addr: addr, Secret: "right-secret", DialTimeout: 5 * time.Second}).Dial(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := jsonCodec{}.AppendRequest(nil, &request{ID: 1, Op: opInit, Init: &initConfig{Seed: 1, DefTestb: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := writePayload(jc, body); err != nil {
		t.Fatal(err)
	}
	if err := jc.(*tcpConn).nc.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := jc.Read(make([]byte, 1)); err == nil || n != 0 {
		t.Fatalf("host answered a JSON-framed init (read %d bytes, %v)", n, err)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("host kept a JSON-framed connection open")
	}
	jc.Close()
	var failure string
	for failure == "" {
		select {
		case line := <-logs:
			if strings.Contains(line, "shard failed") {
				failure = line
			}
		case <-time.After(5 * time.Second):
			t.Fatal("host logged no shard failure for the JSON-framed init")
		}
	}
	if !strings.Contains(failure, "decoding frame") {
		t.Fatalf("JSON-framed init failed undiagnosed: %s", failure)
	}

	// The listener is still healthy: a correct secret gets a live shard.
	tr := &TCPTransport{Addr: addr, Secret: "right-secret", DialTimeout: 5 * time.Second}
	w, err := Connect(tr, WorkerOptions{}, Config{Shard: 0, Seed: 9}, &collectSink{}, nil)
	if err != nil {
		t.Fatalf("connect after rejections: %v", err)
	}
	if seed, err := w.AppSeed(); err != nil || seed == 0 {
		t.Fatalf("AppSeed over TCP: %d, %v", seed, err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Secretless hosting is refused outright.
	if err := ServeListener(ln, ServeConfig{}); err == nil || !strings.Contains(err.Error(), "secret") {
		t.Fatalf("secretless ServeListener: %v", err)
	}
}
