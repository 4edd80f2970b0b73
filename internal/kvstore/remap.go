package kvstore

import (
	"errors"
	"fmt"
	"log"
	"time"

	"securecache/internal/membership"
	"securecache/internal/overload"
	"securecache/internal/partition"
	"securecache/internal/rotation"
)

// This file is the remap engine: the one lifecycle behind both ways the
// frontend changes its key -> replica-group mapping while serving
// (the mechanism lives in internal/rotation; the storage side is the
// epoch tags and SCAN support in store.go/backend.go). Eq. 10 holds
// only while that mapping is secret and covers the live member set, so
// there are two kinds of change, each a thin constructor over the
// engine:
//
//   - A secret rotation (Rotate, rotate.go): the same members under a
//     fresh seed. Nearly every key moves — the full reshuffle is the
//     point.
//   - A view change (Join/Drain, membership.go): a new member set under
//     the same seed. The caller stages a membership view
//     (internal/membership) and grows the fleet and breaker state to
//     cover any new node IDs; because the hash is wrapped in
//     partition.Remap, only keys whose replica group actually changed
//     move.
//
// Either way the engine runs one lifecycle:
//
//  1. openChange reports the expected migration volume
//     (partition.MovedFraction) and flips the epoch under the rotMu
//     write barrier (EpochPartitioner.Begin), so no write spans the
//     flip.
//  2. While the change is open, reads run dual-generation
//     (fetchReplicasVersioned in rotate.go): new group first, then —
//     only on a clean NotFound — the previous generation's group, with
//     read-repair so a key touched once never falls back again. Writes
//     go quorum-to-the-new-group, stamped with the new epoch. Deletes
//     leave tombstones so a concurrent migration copy cannot resurrect
//     a removed key; tombstones die with the change.
//  3. runChange drives one rotation.Migrator, which streams every
//     old-epoch entry out of each scanned node (OpScan) and re-places it
//     under the new mapping, rate-limited and adaptively slowed when
//     backends shed, so migration cannot become its own overload. A
//     node whose breaker is open is skipped for the pass; the change
//     commits once a drained pass skipped fewer than d nodes.
//  4. closeChange commits: the old generation is forgotten and, for a
//     view change, joining nodes become active, draining nodes dead and
//     retired from probing and selection, the anti-entropy repairer is
//     rebuilt over the new member set, and the cache is re-provisioned
//     to the new c* = n·(ln ln n / ln d) + n·k′ + 1. In the same
//     rotateMu hold it stages the next queued view change.
//
// A join whose new node dies mid-fill can never finish (copies to it
// cannot land): after MembershipConfig.AbortAfter the change reverses
// in place (rotation.Reverse), the same loop runs the migration back
// toward the old mapping, and the staged view aborts with the dead
// joiner's ID burned. A node dying mid-DRAIN needs no rollback: moves
// target the new group, which excludes it, and its un-scanned keys are
// covered by its d-1 group siblings.

// openChange opens an epoch change from the current mapping to next,
// migrating the data held by scanNodes, and starts runChange. staged
// is the staged membership view of a join/drain, nil for a secret
// rotation. It returns the new epoch and the sampled fraction of keys
// whose group changes; on error nothing is open. Called under rotateMu.
func (f *Frontend) openChange(next partition.Partitioner, scanNodes []int, staged *membership.View) (uint32, float64, error) {
	_, cur, _ := f.part.Snapshot()
	samples := f.cfg.Rotation.MovedFractionSamples
	if samples <= 0 {
		samples = DefaultMovedFractionSamples
	}
	frac, err := partition.MovedFraction(cur, next, samples)
	if err != nil {
		return 0, 0, err
	}
	limiter, rate := f.newMigrationLimiter()
	inflight := f.metrics.Gauge("rotation_inflight")
	mig, err := rotation.NewMigrator(rotation.MigratorConfig{
		NodeIDs:     scanNodes,
		Batch:       f.cfg.Rotation.Batch,
		MaxAttempts: f.cfg.Rotation.MaxAttempts,
		Backoff:     f.cfg.Rotation.Backoff,
		Limiter:     limiter,
		Unavailable: f.nodeUnavailable,
		OnSkip:      func(int) { f.metrics.Counter("migration_scan_skipped_total").Inc() },
		OnMoved:     f.metrics.Counter("rotation_keys_moved_total").Inc,
		OnInflight:  func(delta int) { inflight.Add(int64(delta)) },
	}, &migrationTransport{f: f, rate: rate})
	if err != nil {
		return 0, 0, err
	}
	// The write barrier: once Begin returns, every Set/Del routes and
	// stamps against the new generation — no write spans the flip.
	f.rotMu.Lock()
	epoch, err := f.part.Begin(next)
	f.rotMu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	f.metrics.Gauge("partition_epoch").Set(int64(epoch))
	f.migrator = mig
	f.rotWG.Add(1)
	go f.runChange(mig, epoch, staged)
	return epoch, frac, nil
}

// newMigrationLimiter builds the rate limiter for one migration from
// the rotation config, plus the adaptive controller that retunes it
// against backend pushback (nil limiter when unlimited).
func (f *Frontend) newMigrationLimiter() (*overload.TokenBucket, *migRateController) {
	rate := f.cfg.Rotation.Rate
	if rate < 0 {
		return nil, nil
	}
	if rate == 0 {
		rate = DefaultRotationRate
	}
	burst := f.cfg.Rotation.Burst
	if burst <= 0 {
		burst = DefaultRotationBurst
	}
	limiter := overload.NewTokenBucket(rate, float64(burst))
	return limiter, newMigRateController(limiter, rate, f.metrics.Gauge("migration_rate"))
}

// runChange drives an open change's migration to its commit. A failed
// pass does NOT abort the change — keys already moved live only under
// the new mapping, so reverting would lose them. Instead the change
// stays open (the dual-generation read path keeps every key reachable
// at fallback cost) and the pass retries every RetryDelay until it
// drains or the frontend closes.
//
// Unreachable nodes are skipped, not fatal — but committing is only
// sound while fewer than d were skipped: every key has d replicas, so
// at least one scanned node covered it. At d or more, a key could live
// exclusively on the unscanned set.
//
// The one change that gives up is a join whose joining node stays dead
// past the AbortAfter grace period: it reverses in place
// (rotation.Reverse — a forward migration back toward the old mapping,
// because entries already purged from their old homes exist only under
// the new one) and this loop drains the reverse migration.
func (f *Frontend) runChange(mig *rotation.Migrator, epoch uint32, staged *membership.View) {
	defer f.rotWG.Done()
	name := fmt.Sprintf("rotation to epoch %d", epoch)
	var abortAfter time.Duration // 0: never reverse
	if staged != nil {
		name = fmt.Sprintf("view change v%d", staged.Version)
		abortAfter = defDur(f.cfg.Membership.AbortAfter, DefaultJoinAbortAfter)
	}
	var joinDeadSince time.Time
	reversed := false
	for {
		_, err := mig.Run(f.rotStop)
		if errors.Is(err, rotation.ErrStopped) {
			return
		}
		if err == nil && len(mig.Skipped()) < f.cfg.Replication {
			break
		}
		if err != nil {
			f.metrics.Counter("rotation_failed_total").Inc()
			log.Printf("kvstore: %s: migration: %v (will retry)", name, err)
		} else {
			log.Printf("kvstore: %s: %d nodes unscannable (need < %d to commit); will retry",
				name, len(mig.Skipped()), f.cfg.Replication)
		}
		if !reversed && abortAfter > 0 {
			dead := f.deadJoiner(*staged)
			switch {
			case dead < 0:
				joinDeadSince = time.Time{}
			case joinDeadSince.IsZero():
				joinDeadSince = time.Now()
			case time.Since(joinDeadSince) >= abortAfter:
				log.Printf("kvstore: %s: joining node %d unreachable for %v; rolling back", name, dead, abortAfter)
				f.metrics.Counter("membership_aborts_total").Inc()
				f.rotMu.Lock()
				epoch, err := f.part.Reverse()
				f.rotMu.Unlock()
				if err != nil {
					log.Printf("kvstore: %s rollback: %v", name, err)
					break
				}
				f.metrics.Gauge("partition_epoch").Set(int64(epoch))
				reversed = true
			}
		}
		select {
		case <-f.rotStop:
			return
		case <-time.After(f.viewRetryDelay()):
		}
	}
	f.closeChange(mig, name, staged, reversed)
}

func (f *Frontend) viewRetryDelay() time.Duration {
	return defDur(f.cfg.Membership.RetryDelay, defaultViewRetryDelay)
}

// deadJoiner returns the ID of a staged joining node whose breaker is
// open (-1 if none). Migration traffic itself feeds the breaker
// (migrationTransport), so a dead joiner is detected even on an
// otherwise idle cluster.
func (f *Frontend) deadJoiner(staged membership.View) int {
	for _, n := range staged.Nodes {
		if n.State == membership.StateJoining && f.nodeUnavailable(n.ID) {
			return n.ID
		}
	}
	return -1
}

// closeChange finalizes a drained change: the epoch commit under the
// write barrier so no Set/Del observes a half-closed change, then the
// tombstone reset (they only guard against resurrection by migration
// copies, and there are none left). A view change then commits its
// staged view — or aborts it, after a rollback — and re-derives
// everything downstream of the member set. All of it, and the staging
// of the next queued view change, happens in one rotateMu hold: no
// Rotate can take the slot between the commit and the dequeue.
func (f *Frontend) closeChange(mig *rotation.Migrator, name string, staged *membership.View, reversed bool) {
	f.rotateMu.Lock()
	defer f.rotateMu.Unlock()
	f.rotMu.Lock()
	f.part.Commit()
	f.rotMu.Unlock()
	f.tombMu.Lock()
	f.tombs = make(map[string]struct{})
	f.tombMu.Unlock()
	if staged == nil {
		f.metrics.Counter("rotations_completed_total").Inc()
		log.Printf("kvstore: %s committed: %d keys migrated", name, mig.Moved())
		return
	}
	var view membership.View
	if reversed {
		view = f.memb.Abort()
		log.Printf("kvstore: %s rolled back: %d members serving under the original mapping",
			name, len(view.Members()))
	} else {
		view = f.memb.Commit()
		f.metrics.Counter("membership_commits_total").Inc()
		log.Printf("kvstore: %s committed at epoch %d: %d keys re-placed, %d members serving",
			name, f.part.Epoch(), mig.Moved(), len(view.Members()))
	}
	f.applyCommittedView(view)
	f.stageQueued()
}

// stageQueued stages queued view changes, oldest first, until one opens
// or the queue is empty. Called under rotateMu once the previous change
// has closed. stageView re-validates each change from scratch (joiner
// reachability, member-count floor), so a change that was plausible
// when queued can still fail — that failure is logged and counted,
// exactly as if the operator had issued it then, and the next entry
// gets its turn.
func (f *Frontend) stageQueued() {
	for len(f.pendingViews) > 0 {
		pv := f.pendingViews[0]
		f.pendingViews = f.pendingViews[1:]
		f.metrics.Gauge("membership_queued").Set(int64(len(f.pendingViews)))
		_, err := f.stageView(pv.joinAddrs, pv.drainIDs)
		if err == nil {
			return
		}
		f.metrics.Counter("membership_queue_dropped_total").Inc()
		log.Printf("kvstore: queued membership change (join %v, drain %v) dropped: %v",
			pv.joinAddrs, pv.drainIDs, err)
	}
}
