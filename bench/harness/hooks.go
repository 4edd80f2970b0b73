package harness

import (
	"sync/atomic"
	"time"
)

// clientHooks counts what the generator's kvstore.Clients report through
// their OnWindowWait and OnRetry hooks.
type clientHooks struct {
	waited  atomic.Int64 // nanoseconds blocked on a full in-flight window
	retries atomic.Int64
}

func (h *clientHooks) windowWait(d time.Duration) { h.waited.Add(int64(d)) }
func (h *clientHooks) retry()                     { h.retries.Add(1) }

func (h *clientHooks) reset() {
	h.waited.Store(0)
	h.retries.Store(0)
}
