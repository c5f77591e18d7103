// Package faultnet is a scriptable TCP fault-injection proxy for chaos
// tests: it sits between a client and a real listener and misbehaves on
// command. Supported faults, individually toggleable at runtime:
//
//   - added latency on every relayed write (slow network);
//   - partition: existing connections stall silently and new connections
//     are accepted but never serviced — the "packets fall on the floor"
//     failure that exposes every missing timeout, unlike a clean
//     connection-refused;
//   - refuse: new connections are closed immediately (fast failure);
//   - cut-after-N: each connection is torn down mid-stream once N bytes
//     have been relayed toward the client, truncating whatever response
//     was in flight.
//
// The proxy is used from package tests: a ring sibling behind a partition
// must cost the peer budget, never a hang, and a shard whose proxy refuses
// new connections and cuts the live ones is, to the router and its peers,
// a killed process. It is deliberately transport-level: the services under
// test must survive byte-exact truncation and wire silence, not polite
// HTTP errors.
package faultnet

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is one fault-injecting TCP forwarder. Create with Listen, point
// clients at Addr, and script faults with the Set* methods; all methods are
// safe for concurrent use.
type Proxy struct {
	target string
	ln     net.Listener

	latency    atomic.Int64 // per-write delay, nanoseconds
	partition  atomic.Bool  // stall all bytes, hold connections open
	refuse     atomic.Bool  // close new connections immediately
	cutAfter   atomic.Int64 // bytes toward the client before a mid-stream close (0 = off)
	accepted   atomic.Uint64
	toClient   atomic.Uint64 // bytes relayed target -> client
	toTarget   atomic.Uint64 // bytes relayed client -> target
	partitionC chan struct{} // closed on Heal so stalled copies re-check

	mu    sync.Mutex
	conns map[net.Conn]struct{} // both sides of every live relay
	wg    sync.WaitGroup
	quit  chan struct{}
	once  sync.Once
}

// Listen starts a proxy on a fresh loopback port forwarding to target
// (a host:port). Faults are all off initially: the proxy is a transparent
// relay until scripted otherwise.
func Listen(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		target:     target,
		ln:         ln,
		conns:      map[net.Conn]struct{}{},
		partitionC: make(chan struct{}),
		quit:       make(chan struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address (host:port).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL is the proxy's address as an http base URL, for pointing -peers or
// -shards style flags at it.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// SetLatency adds d of delay before every relayed write in both
// directions (0 restores full speed).
func (p *Proxy) SetLatency(d time.Duration) { p.latency.Store(int64(d)) }

// SetPartitioned simulates a network partition: while true, bytes stop
// flowing on every live connection and new connections are accepted but
// never serviced — nothing is closed, so the far side sees pure silence.
// Healing (false) lets stalled relays resume.
func (p *Proxy) SetPartitioned(v bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	was := p.partition.Swap(v)
	if was && !v {
		// Wake every relay goroutine parked on the partition.
		close(p.partitionC)
		p.partitionC = make(chan struct{})
	}
}

// SetRefuse makes the proxy close new connections immediately while true —
// the crashed-process failure mode, as opposed to the partition's silence.
// Existing connections are unaffected.
func (p *Proxy) SetRefuse(v bool) { p.refuse.Store(v) }

// SetCutAfter arms a mid-stream close: each connection is torn down (both
// sides) once n bytes have been relayed toward the client on it,
// truncating the in-flight response. 0 disarms.
func (p *Proxy) SetCutAfter(n int64) { p.cutAfter.Store(n) }

// CloseAll tears down every live relayed connection without touching the
// listener: clients see an abrupt close, and new connections still work.
func (p *Proxy) CloseAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		c.Close()
	}
}

// Stats reports connections accepted and bytes relayed in each direction.
func (p *Proxy) Stats() (accepted, bytesToClient, bytesToTarget uint64) {
	return p.accepted.Load(), p.toClient.Load(), p.toTarget.Load()
}

// Close stops the listener and tears down every connection.
func (p *Proxy) Close() {
	p.once.Do(func() {
		close(p.quit)
		p.ln.Close()
		p.CloseAll()
	})
	p.wg.Wait()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.accepted.Add(1)
		if p.refuse.Load() {
			conn.Close()
			continue
		}
		p.wg.Add(1)
		go p.serve(conn)
	}
}

// serve relays one client connection to the target, applying the scripted
// faults. Under a partition the target dial itself is also parked, so a
// connection opened mid-partition hangs exactly like an established one.
func (p *Proxy) serve(client net.Conn) {
	defer p.wg.Done()
	p.track(client)
	defer p.untrack(client)
	defer client.Close()
	if !p.waitHealed() {
		return
	}
	server, err := net.DialTimeout("tcp", p.target, 10*time.Second)
	if err != nil {
		return
	}
	p.track(server)
	defer p.untrack(server)
	defer server.Close()

	// cut counts bytes toward the client on this connection only.
	var cut atomic.Int64
	cut.Store(p.cutAfter.Load())

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.relay(server, client, &p.toTarget, nil, nil)
		// Client went away (or was cut): take the server side down too so
		// the relay in the other direction unblocks.
		server.Close()
	}()
	go func() {
		defer wg.Done()
		p.relay(client, server, &p.toClient, &cut, client)
		client.Close()
	}()
	wg.Wait()
}

// relay copies src to dst one chunk at a time so each chunk observes the
// current latency/partition script. When cut is non-nil it counts down
// toward a mid-stream close of closeTarget. Each chunk is counted before it
// is written, so Stats includes a byte before the far side can react to it
// (the target answering a request, the client reading the reply).
func (p *Proxy) relay(dst io.Writer, src net.Conn, counter *atomic.Uint64, cut *atomic.Int64, closeTarget net.Conn) {
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !p.waitHealed() {
				return
			}
			if d := time.Duration(p.latency.Load()); d > 0 {
				select {
				case <-time.After(d):
				case <-p.quit:
					return
				}
			}
			chunk := buf[:n]
			if cut != nil && p.cutAfter.Load() > 0 {
				remaining := cut.Add(int64(-n))
				if remaining < 0 {
					keep := n + int(remaining)
					if keep < 0 {
						keep = 0
					}
					chunk = buf[:keep]
					if len(chunk) > 0 {
						counter.Add(uint64(len(chunk)))
						dst.Write(chunk)
					}
					// Mid-stream close: both directions die with the
					// response truncated at the byte budget.
					closeTarget.Close()
					src.Close()
					return
				}
			}
			counter.Add(uint64(n))
			if _, werr := dst.Write(chunk); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// waitHealed parks while a partition is active, returning false when the
// proxy shut down instead of healing.
func (p *Proxy) waitHealed() bool {
	for {
		if !p.partition.Load() {
			return true
		}
		p.mu.Lock()
		ch := p.partitionC
		p.mu.Unlock()
		if !p.partition.Load() {
			return true
		}
		select {
		case <-ch:
		case <-p.quit:
			return false
		}
	}
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}
