package kvstore

import (
	"io"
	"net"
	"testing"
	"time"

	"securecache/internal/proto"
)

// FuzzServeConn feeds arbitrary bytes to a backend's read loop over
// net.Pipe, with a reader draining the responses. The loop must not
// panic, must return once the input ends, and must leave no goroutine
// (handler or flusher) behind.
func FuzzServeConn(f *testing.F) {
	frame := func(req proto.Request) []byte {
		b, err := proto.AppendRequest(nil, &req)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	get := frame(proto.Request{Op: proto.OpGet, Key: "k", Corr: 1})
	f.Add(get)
	f.Add(frame(proto.Request{Op: proto.OpPing})) // corr 0: malformed
	f.Add(get[:len(get)-1])                       // truncated
	f.Fuzz(func(t *testing.T, in []byte) {
		checkGoroutineLeaks(t)
		b := NewBackend(0)
		b.Store().Set("k", []byte("v"))
		conn, peer := net.Pipe()
		s := b.srv
		s.gate.AdmitConn()
		s.mu.Lock()
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		served := make(chan struct{})
		go func() {
			s.serveConn(conn)
			close(served)
		}()
		drained := make(chan struct{})
		go func() {
			io.Copy(io.Discard, peer)
			close(drained)
		}()
		// Write returns once the read loop has taken every byte (or has
		// dropped the conn); the frames it buffered are still served
		// before it sees the close as the end of its input.
		peer.Write(in)
		peer.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("serveConn did not return after its input ended")
		}
		<-drained
	})
}
