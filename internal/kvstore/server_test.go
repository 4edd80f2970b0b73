package kvstore

import (
	"bufio"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"securecache/internal/faultnet"
	"securecache/internal/metrics"
	"securecache/internal/overload"
	"securecache/internal/proto"
)

// The node.ConnServer cases below run against both handlers and both kinds
// of peer: the loop is shared, so every rule it enforces must hold for
// {Backend, Frontend} × {lockstep, pipelined}. Both peers speak
// correlated frames; a lockstep peer keeps one request in flight (a
// Client with PipelineDepth 0), a pipelined one a window of them.

// testNode is one serving role behind a node.ConnServer.
type testNode struct {
	addr string
	reg  *metrics.Registry
	// seed stores a value where a GET through addr will find it.
	seed func(key string, value []byte)
}

func startTestNode(t *testing.T, frontend bool, lim overload.Limits, idle time.Duration) testNode {
	t.Helper()
	if !frontend {
		b, addr, err := StartBackendWithLimits(0, "127.0.0.1:0", lim)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		b.SetIdleTimeout(idle)
		return testNode{addr: addr, reg: b.Metrics(), seed: func(k string, v []byte) { b.Store().Set(k, v) }}
	}
	lc := startCluster(t, LocalConfig{
		Nodes: 2, Replication: 2, PartitionSeed: 7,
		FrontendLimits: lim, FrontendIdleTimeout: idle,
		Client: ClientConfig{MaxRetries: -1},
	})
	return testNode{addr: lc.FrontendAddr, reg: lc.Frontend.Metrics(), seed: func(k string, v []byte) {
		for _, b := range lc.Backends {
			b.Store().Set(k, v)
		}
	}}
}

// eachRoleAndMode runs fn as one subtest per {role} × {peer mode}.
func eachRoleAndMode(t *testing.T, fn func(t *testing.T, frontend, pipelined bool)) {
	for _, role := range []string{"backend", "frontend"} {
		for _, mode := range []string{"lockstep", "pipelined"} {
			t.Run(role+"/"+mode, func(t *testing.T) { fn(t, role == "frontend", mode == "pipelined") })
		}
	}
}

// wirePeer is a raw protocol peer: it stamps every request with the
// next correlation ID.
type wirePeer struct {
	conn net.Conn
	r    *bufio.Reader
	corr uint64
}

func dialPeer(t *testing.T, addr string) *wirePeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &wirePeer{conn: conn, r: bufio.NewReader(conn)}
}

func (p *wirePeer) send(req proto.Request) error {
	p.corr++
	req.Corr = p.corr
	return proto.WriteRequest(p.conn, &req)
}

// do is one exchange; the response must answer the request just sent.
func (p *wirePeer) do(req proto.Request) (*proto.Response, error) {
	if err := p.send(req); err != nil {
		return nil, err
	}
	p.conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	resp, err := proto.ReadResponse(p.r)
	if err == nil && resp.Corr != p.corr {
		return nil, errors.New("response carries the wrong correlation ID")
	}
	return resp, err
}

// uncorrelatedPing sends a corr-0 Ping, which a server must treat as
// malformed: it returns the read that follows, io.EOF once the server
// has dropped the conn without answering.
func (p *wirePeer) uncorrelatedPing() (*proto.Response, error) {
	if err := proto.WriteRequest(p.conn, &proto.Request{Op: proto.OpPing}); err != nil {
		return nil, err
	}
	p.conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	return proto.ReadResponse(p.r)
}

// clientFor returns a Client speaking the given mode to addr.
func clientFor(t *testing.T, addr string, pipelined bool) *Client {
	cfg := ClientConfig{MaxRetries: -1}
	if pipelined {
		cfg.PipelineDepth = 8
	}
	c := NewClientWithConfig(addr, cfg)
	t.Cleanup(c.Close)
	return c
}

// TestServerConnCapRejectsAtAccept: connections past MaxConns are closed
// at accept, counted, and the established one keeps working.
func TestServerConnCapRejectsAtAccept(t *testing.T) {
	checkGoroutineLeaks(t)
	eachRoleAndMode(t, func(t *testing.T, frontend, pipelined bool) {
		n := startTestNode(t, frontend, overload.Limits{MaxConns: 1}, 0)
		// A single caller keeps one conn either way: the serial client
		// reuses its pooled conn, the pipelined one shares its pipe.
		held := clientFor(t, n.addr, pipelined)
		if err := held.Ping(); err != nil {
			t.Fatalf("ping on the first conn: %v", err)
		}
		extra, err := net.Dial("tcp", n.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer extra.Close()
		extra.SetReadDeadline(time.Now().Add(3 * time.Second))
		if _, rerr := extra.Read(make([]byte, 1)); rerr != io.EOF {
			t.Fatalf("over-cap conn read = %v, want EOF (closed at accept)", rerr)
		}
		if n.reg.Counter("busy_conns_rejected_total").Value() == 0 {
			t.Error("busy_conns_rejected_total = 0 after an over-cap connect")
		}
		if err := held.Ping(); err != nil {
			t.Fatalf("held conn unusable at MaxConns: %v", err)
		}
	})
}

// TestServerInflightSlot pins what holds the one in-flight slot: only a
// request inside its handler. A holder asks for a maximum-size value and
// stops reading after the first byte — proof its handler has returned
// and the response is on the way out. The slot was released when the
// handler returned, so the stalled peer costs a prober of either kind
// nothing.
func TestServerInflightSlot(t *testing.T) {
	checkGoroutineLeaks(t)
	t.Run("holder-pipelined", func(t *testing.T) {
		eachRoleAndMode(t, func(t *testing.T, frontend, pipelined bool) {
			n := startTestNode(t, frontend, overload.Limits{MaxInflight: 1, AdmissionWait: -1}, 0)
			n.seed("big", make([]byte, proto.MaxValueLen))
			n.seed("small", []byte("v"))

			holder := dialPeer(t, n.addr)
			if err := holder.send(proto.Request{Op: proto.OpGet, Key: "big"}); err != nil {
				t.Fatal(err)
			}
			holder.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := holder.r.ReadByte(); err != nil {
				t.Fatalf("first byte of the big response: %v", err)
			}

			c := clientFor(t, n.addr, pipelined)
			for i := 0; i < 20; i++ {
				if _, err := c.Get("small"); err != nil {
					t.Fatalf("get %d beside a stalled peer: %v", i, err)
				}
			}
		})
	})
}

// TestServerIdleTimeoutDropsSilentConn: a peer that goes silent — before
// its first frame (the lockstep arm), or after an exchange (the
// pipelined arm) — is disconnected, not kept.
func TestServerIdleTimeoutDropsSilentConn(t *testing.T) {
	checkGoroutineLeaks(t)
	eachRoleAndMode(t, func(t *testing.T, frontend, pipelined bool) {
		n := startTestNode(t, frontend, overload.Limits{}, 60*time.Millisecond)
		p := dialPeer(t, n.addr)
		if pipelined {
			if _, err := p.do(proto.Request{Op: proto.OpPing}); err != nil {
				t.Fatal(err)
			}
		}
		p.conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		if _, err := p.r.ReadByte(); err != io.EOF {
			t.Fatalf("silent conn read = %v, want EOF (dropped by the idle timeout)", err)
		}
	})
}

// TestServerUncorrelatedFrameOnFreshConnClosesConn: every frame must
// carry a correlation ID, so a corr-0 frame — what a peer that predates
// correlated frames sends first — is malformed and drops the conn with
// no response.
func TestServerUncorrelatedFrameOnFreshConnClosesConn(t *testing.T) {
	checkGoroutineLeaks(t)
	for _, frontend := range []bool{false, true} {
		n := startTestNode(t, frontend, overload.Limits{}, 0)
		p := dialPeer(t, n.addr)
		if resp, err := p.uncorrelatedPing(); err != io.EOF {
			t.Fatalf("frontend=%v: corr-0 frame on a fresh conn = %v, %v; want EOF", frontend, resp, err)
		}
	}
}

// TestServerUncorrelatedFrameAfterUpgradeClosesConn: a corr-0 frame is
// malformed after correlated traffic too.
func TestServerUncorrelatedFrameAfterUpgradeClosesConn(t *testing.T) {
	checkGoroutineLeaks(t)
	for _, frontend := range []bool{false, true} {
		n := startTestNode(t, frontend, overload.Limits{}, 0)
		p := dialPeer(t, n.addr)
		if resp, err := p.do(proto.Request{Op: proto.OpPing}); err != nil || resp.Status != proto.StatusOK {
			t.Fatalf("frontend=%v: correlated ping: %v, %v", frontend, resp, err)
		}
		if resp, err := p.uncorrelatedPing(); err != io.EOF {
			t.Fatalf("frontend=%v: uncorrelated frame after a correlated one = %v, %v; want EOF", frontend, resp, err)
		}
	}
}

// TestServeAfterCloseClosesListener: a Serve that loses the race with
// Close must not leave the port bound with nobody accepting.
func TestServeAfterCloseClosesListener(t *testing.T) {
	checkGoroutineLeaks(t)
	b := NewBackend(0)
	f, err := NewFrontend(FrontendConfig{BackendAddrs: []string{"127.0.0.1:1"}, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, node := range map[string]interface {
		Serve(net.Listener) error
		Close() error
	}{"backend": b, "frontend": f} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node.Close()
		if err := node.Serve(l); !errors.Is(err, net.ErrClosed) {
			t.Errorf("%s: Serve after Close = %v, want net.ErrClosed", name, err)
		}
		if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
			t.Errorf("%s: listener still open after Serve returned (Accept = %v)", name, err)
			l.Close()
		}
	}
}

// TestFrontendCloseReleasesPortBeforeWaiting: Close has slow things to
// wait for — here the probe loop, pinned in a Ping to a blackholed
// backend for the read timeout. The accept loop is gone from the moment
// Close begins, so during that wait the port must already be released:
// a dial is refused or reset, never accepted and left unanswered.
func TestFrontendCloseReleasesPortBeforeWaiting(t *testing.T) {
	checkGoroutineLeaks(t)
	b, baddr, err := StartBackend(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	proxy, err := faultnet.Start(baddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	const pingTimeout = time.Second
	f, faddr, err := StartFrontend(FrontendConfig{
		BackendAddrs: []string{proxy.Addr()}, Replication: 1,
		Client: ClientConfig{ReadTimeout: pingTimeout, MaxRetries: -1},
		Health: HealthConfig{FailureThreshold: 1, ProbeInterval: 5 * time.Millisecond},
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxy.SetFaults(faultnet.Faults{Blackhole: true})
	f.health.onFailure(0) // open the breaker: the probe loop starts pinging
	if err := waitUntil(3*time.Second, func() bool {
		accepted, _, _ := proxy.Stats()
		return accepted > 0
	}); err != nil {
		t.Fatal("probe loop never dialed the blackholed backend")
	}

	closed := make(chan struct{})
	go func() {
		f.Close()
		close(closed)
	}()
	// probe dials the frontend and tries one Ping: nil means served.
	probe := func() error {
		conn, err := net.Dial("tcp", faddr)
		if err != nil {
			return err // refused: the port is released
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(pingTimeout / 4))
		err = pingRaw(conn)
		if isTimeout(err) {
			t.Fatal("conn accepted by the kernel and left unanswered while Close waits")
		}
		return err
	}
	// Until Close has marked the server closed a dial is served normally;
	// from then on every dial must fail fast (the accept loop's last act
	// may be to accept one conn and close it — the ones after it are the
	// ones a still-bound port would strand).
	for probe() == nil {
	}
	for i := 0; i < 3; i++ {
		if probe() == nil {
			t.Fatal("frontend served a new conn after Close began")
		}
	}
	select {
	case <-closed:
		t.Log("Close returned before the dial probe finished; the wait window was not exercised")
	default:
	}
	<-closed
}
