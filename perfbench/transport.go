package main

import (
	"sync/atomic"

	"aimes/internal/backend"
)

// countingTransport wraps a worker transport and counts the bytes each
// direction carries across every connection it dials: out is what the
// parent wrote to workers, in what it read back.
type countingTransport struct {
	inner   backend.Transport
	in, out atomic.Int64
}

func (t *countingTransport) Dial(shard int, onDeath func(error)) (backend.Conn, error) {
	c, err := t.inner.Dial(shard, onDeath)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, t: t}, nil
}

type countingConn struct {
	backend.Conn
	t *countingTransport
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.out.Add(int64(n))
	return n, err
}
