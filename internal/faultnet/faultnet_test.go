package faultnet

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// startEcho returns the address of a TCP echo server that lives until
// the test ends.
func startEcho(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(conn)
		}
	}()
	return l.Addr().String()
}

func startProxy(t *testing.T, target string) *Proxy {
	t.Helper()
	p, err := Start(target)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func roundTrip(t *testing.T, addr string, msg []byte, timeout time.Duration) ([]byte, error) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := conn.Write(msg); err != nil {
		return nil, err
	}
	got := make([]byte, len(msg))
	_, err = io.ReadFull(conn, got)
	return got, err
}

func TestTransparentForwarding(t *testing.T) {
	p := startProxy(t, startEcho(t))
	msg := []byte("hello through the proxy")
	got, err := roundTrip(t, p.Addr(), msg, 2*time.Second)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("echo through clear proxy = %q, %v", got, err)
	}
	// The proxy counts a chunk after writing it on, so the echo can reach
	// the client before the return leg is counted: poll for the count.
	deadline := time.Now().Add(2 * time.Second)
	for {
		acc, _, fwd := statsOf(p)
		if acc == 1 && fwd >= uint64(2*len(msg)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats: accepted %d, forwarded %d bytes", acc, fwd)
		}
		time.Sleep(time.Millisecond)
	}
}

func statsOf(p *Proxy) (uint64, uint64, uint64) { return p.Stats() }

func TestLatencyInjection(t *testing.T) {
	p := startProxy(t, startEcho(t))
	p.SetFaults(Faults{Latency: 100 * time.Millisecond})
	start := time.Now()
	msg := []byte("slow")
	got, err := roundTrip(t, p.Addr(), msg, 3*time.Second)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("echo with latency = %q, %v", got, err)
	}
	// One chunk each way: at least 2×100ms.
	if elapsed := time.Since(start); elapsed < 180*time.Millisecond {
		t.Fatalf("round trip took %v, want >= ~200ms of injected latency", elapsed)
	}
}

func TestBlackholeStallsThenRecovers(t *testing.T) {
	p := startProxy(t, startEcho(t))
	p.SetFaults(Faults{Blackhole: true})
	if _, err := roundTrip(t, p.Addr(), []byte("void"), 200*time.Millisecond); err == nil {
		t.Fatal("read through a blackhole succeeded")
	}
	p.Clear()
	msg := []byte("back")
	got, err := roundTrip(t, p.Addr(), msg, 2*time.Second)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("echo after clearing blackhole = %q, %v", got, err)
	}
}

func TestRejectConns(t *testing.T) {
	p := startProxy(t, startEcho(t))
	p.SetFaults(Faults{RejectConns: true})
	// The dial itself may succeed (the listener accepts then closes), but
	// no data ever comes back.
	if _, err := roundTrip(t, p.Addr(), []byte("x"), 300*time.Millisecond); err == nil {
		t.Fatal("round trip through rejecting proxy succeeded")
	}
	_, rejected, _ := p.Stats()
	if rejected == 0 {
		t.Fatal("no connection counted as rejected")
	}
	p.Clear()
	if _, err := roundTrip(t, p.Addr(), []byte("y"), 2*time.Second); err != nil {
		t.Fatalf("round trip after clearing rejection: %v", err)
	}
}

func TestTruncateMidStream(t *testing.T) {
	p := startProxy(t, startEcho(t))
	p.SetFaults(Faults{TruncateAfterBytes: 3})
	conn, err := net.DialTimeout("tcp", p.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	if err != nil && !isClosedNetErr(err) {
		t.Fatalf("read after truncation: %v", err)
	}
	if string(got) != "012" {
		t.Fatalf("received %q, want exactly the 3 pre-truncation bytes", got)
	}
}

func isClosedNetErr(err error) bool {
	_, ok := err.(net.Error)
	return ok
}

func TestCloseExistingSeversFlows(t *testing.T) {
	p := startProxy(t, startEcho(t))
	conn, err := net.DialTimeout("tcp", p.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	if _, err := io.ReadFull(conn, one); err != nil {
		t.Fatal(err)
	}
	p.CloseExisting()
	if _, err := conn.Read(one); err == nil {
		t.Fatal("read on a severed flow succeeded")
	}
}

// TestOneWayDrops pins the asymmetric-partition semantics: each drop
// direction silences exactly its own direction, the connection stays
// open throughout, and clearing the fault heals the SAME connection —
// no reconnect required (silence, not reset, is the failure mode).
func TestOneWayDrops(t *testing.T) {
	p := startProxy(t, startEcho(t))
	conn, err := net.DialTimeout("tcp", p.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Healthy baseline on this connection.
	echo := func(msg string, timeout time.Duration) (string, error) {
		conn.SetDeadline(time.Now().Add(timeout))
		if _, err := conn.Write([]byte(msg)); err != nil {
			return "", err
		}
		got := make([]byte, len(msg))
		_, err := io.ReadFull(conn, got)
		return string(got), err
	}
	if got, err := echo("base", 2*time.Second); err != nil || got != "base" {
		t.Fatalf("baseline echo = %q, %v", got, err)
	}

	// DropToServer: the request never reaches the echo server, so no
	// reply ever comes — but the read fails with a timeout, not a reset.
	p.SetFaults(Faults{DropToServer: true})
	if _, err := echo("lost", 200*time.Millisecond); err == nil {
		t.Fatal("echo through a client->server drop succeeded")
	} else if !isTimeout(err) {
		t.Fatalf("client->server drop produced %v, want a timeout (silence, not reset)", err)
	}

	// Heal: the SAME connection works again.
	p.Clear()
	if got, err := echo("healed", 2*time.Second); err != nil || got != "healed" {
		t.Fatalf("echo after heal = %q, %v", got, err)
	}

	// DropToClient: the server processes the request (bytes_forwarded
	// climbs on the inbound direction) but the reply is swallowed.
	_, _, fwdBefore := p.Stats()
	p.SetFaults(Faults{DropToClient: true})
	if _, err := echo("ack-lost", 200*time.Millisecond); err == nil {
		t.Fatal("echo through a server->client drop succeeded")
	} else if !isTimeout(err) {
		t.Fatalf("server->client drop produced %v, want a timeout", err)
	}
	if _, _, fwdAfter := p.Stats(); fwdAfter <= fwdBefore {
		t.Fatal("request bytes did not reach the server under DropToClient")
	}

	// Heal again; the swallowed reply is gone for good (the server wrote
	// it during the drop window), so drain with a fresh round trip on a
	// new connection instead of asserting on the poisoned one.
	p.Clear()
	msg := []byte("fresh")
	got, err := roundTrip(t, p.Addr(), msg, 2*time.Second)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("fresh echo after heal = %q, %v", got, err)
	}
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// TestPartitionWindows checks the flap-schedule helper: windows
// alternate fault/heal for the requested cycle count and RunSchedule
// leaves the link healed without closing one-way-dropped connections.
func TestPartitionWindows(t *testing.T) {
	fault := Faults{DropToServer: true}
	steps := PartitionWindows(fault, 40*time.Millisecond, 40*time.Millisecond, 2)
	if len(steps) != 4 {
		t.Fatalf("PartitionWindows produced %d steps, want 4", len(steps))
	}
	for i, s := range steps {
		if i%2 == 0 && s.Faults != fault {
			t.Fatalf("step %d = %+v, want the fault window", i, s.Faults)
		}
		if i%2 == 1 && s.Faults != (Faults{}) {
			t.Fatalf("step %d = %+v, want a heal window", i, s.Faults)
		}
	}

	p := startProxy(t, startEcho(t))
	conn, err := net.DialTimeout("tcp", p.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.RunSchedule(steps)
	}()
	<-done
	// One-way windows must not have severed the idle connection: it
	// still round-trips after the schedule drains.
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write([]byte("ok")); err != nil {
		t.Fatalf("write after flap schedule: %v", err)
	}
	got := make([]byte, 2)
	if _, err := io.ReadFull(conn, got); err != nil || string(got) != "ok" {
		t.Fatalf("echo after flap schedule = %q, %v", got, err)
	}
}

func TestRunScheduleAppliesAndClears(t *testing.T) {
	p := startProxy(t, startEcho(t))
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.RunSchedule([]Step{
			{Faults: Faults{Blackhole: true}, Dur: 80 * time.Millisecond},
			{Faults: Faults{Latency: time.Millisecond}, Dur: 80 * time.Millisecond},
		})
	}()
	time.Sleep(20 * time.Millisecond)
	if !p.CurrentFaults().Blackhole {
		t.Fatal("schedule step 1 not active")
	}
	<-done
	if f := p.CurrentFaults(); f != (Faults{}) {
		t.Fatalf("faults after schedule = %+v, want cleared", f)
	}
	msg := []byte("post-schedule")
	got, err := roundTrip(t, p.Addr(), msg, 2*time.Second)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("echo after schedule = %q, %v", got, err)
	}
}
