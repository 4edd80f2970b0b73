package kvstore

import "sync/atomic"

// testHooks are mutation switches for checker validation: each one
// disables a single convergence safeguard so the consistency test suite
// can prove the checker actually catches the resulting contract
// violation (a checker that passes everything is worthless). All
// atomics so flipping them mid-test stays clean under -race. Production
// code never sets them; they exist so the chaos suite can break the
// system on purpose.
var testHooks struct {
	// disableReadRepair drops read-repair scheduling: replicas that
	// served a stale or empty answer are no longer backfilled from the
	// winning copy, so post-quiescence replica agreement fails.
	disableReadRepair atomic.Bool
	// disableTombAuthority makes a tombstone answer count as a clean
	// miss during replica fan-in instead of an authoritative delete, so
	// a lagging replica's older live copy can resurrect a deleted key.
	disableTombAuthority atomic.Bool
	// beforeFill runs between a miss's replica read and its cache fill.
	beforeFill atomic.Pointer[func(key string)]
}
