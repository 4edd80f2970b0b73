package node

import (
	"runtime"
	"testing"
	"time"
)

// checkGoroutineLeaks asserts at test cleanup that the goroutine count
// is back to its level at the call, retrying while conn teardown
// finishes. Not safe for t.Parallel() tests — the count is
// process-global.
func checkGoroutineLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after cleanup\n%s", before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}
