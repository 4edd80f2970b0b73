// Package membership tracks the cluster's versioned node view: which
// back-end nodes exist, their addresses, and where each one is in the
// join/active/drain/dead lifecycle.
//
// The paper's analysis fixes n at provisioning time, but a production
// cluster adds and drains nodes live. The membership view is the source
// of truth the rest of the system derives from on every change: the
// partitioner maps keys over the view's members, the auto-provisioner
// recomputes c* = n·(ln ln n / ln d) + n·k′ + 1 from the member count,
// and `secctl guard` re-derives its Eq. 10 verdict thresholds.
//
// A view change is a two-phase transition mirroring the epoch rotation
// it rides on (internal/rotation): Stage* opens a staged view (joining
// nodes included in the member set, draining nodes excluded), the
// epoch migrator re-places every key whose replica group changed, and
// Commit (joining -> active, draining -> dead) or Abort (staged view
// discarded) closes it. Node IDs are grow-only and never reused, so an
// ID observed anywhere in the system — hint queues, breaker state,
// epoch-tagged store entries — can never silently point at a different
// machine after a sequence of changes.
package membership

import (
	"errors"
	"fmt"
	"sync"
)

// State is a node's position in the membership lifecycle.
type State string

// Node lifecycle states.
const (
	// StateJoining: staged into the member set; the migrator is filling
	// it. It serves reads/writes for groups the staged mapping assigns
	// it, but the change has not committed.
	StateJoining State = "joining"
	// StateActive: a committed member.
	StateActive State = "active"
	// StateDraining: staged out of the member set; the migrator is
	// moving its keys off. It keeps serving old-generation reads until
	// the change commits.
	StateDraining State = "draining"
	// StateDead: drained out (or failed out) of the cluster. Kept in the
	// view for ID-allocation history; never a member again.
	StateDead State = "dead"
)

// Node is one back-end in the view.
type Node struct {
	ID    int    `json:"id"`
	Addr  string `json:"addr"`
	State State  `json:"state"`
}

// View is one immutable version of the cluster membership.
type View struct {
	Version uint64 `json:"version"`
	Nodes   []Node `json:"nodes"`
}

// Members returns the IDs of nodes that hold data under this view's
// mapping: active and joining nodes, in ascending ID order. Draining
// and dead nodes are excluded — removing a node from the mapping is
// exactly what staging its drain means.
func (v View) Members() []int {
	var ids []int
	for _, n := range v.Nodes {
		if n.State == StateActive || n.State == StateJoining {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// MemberAddrs returns the addresses parallel to Members().
func (v View) MemberAddrs() []string {
	var addrs []string
	for _, n := range v.Nodes {
		if n.State == StateActive || n.State == StateJoining {
			addrs = append(addrs, n.Addr)
		}
	}
	return addrs
}

// Node returns the node with the given ID and whether it exists.
func (v View) Node(id int) (Node, bool) {
	for _, n := range v.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// clone deep-copies the view so callers can hold it without racing the
// tracker.
func (v View) clone() View {
	out := View{Version: v.Version, Nodes: make([]Node, len(v.Nodes))}
	copy(out.Nodes, v.Nodes)
	return out
}

// ErrChangeActive reports a Stage* while a change is already staged.
var ErrChangeActive = errors.New("membership: view change already in progress")

// Tracker holds the committed view plus (during a change) the staged
// view. Safe for concurrent use.
type Tracker struct {
	mu     sync.Mutex
	view   View
	staged *View
	nextID int
}

// NewTracker seeds a tracker with the boot membership: nodes 0..n-1
// active at the given addresses, view version 1.
func NewTracker(addrs []string) *Tracker {
	t := &Tracker{view: View{Version: 1}, nextID: len(addrs)}
	for i, a := range addrs {
		t.view.Nodes = append(t.view.Nodes, Node{ID: i, Addr: a, State: StateActive})
	}
	return t
}

// View returns the committed view.
func (t *Tracker) View() View {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.view.clone()
}

// Staged returns the staged view and whether a change is open.
func (t *Tracker) Staged() (View, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.staged == nil {
		return View{}, false
	}
	return t.staged.clone(), true
}

// Changing reports whether a view change is staged.
func (t *Tracker) Changing() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.staged != nil
}

// Current returns the view requests should be interpreted against: the
// staged view during a change, the committed view otherwise.
func (t *Tracker) Current() View {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.staged != nil {
		return t.staged.clone()
	}
	return t.view.clone()
}

// StageChange opens a view change: joinAddrs become joining nodes with
// freshly allocated IDs, drainIDs move active -> draining. The staged
// view's Members() is the node set the new mapping must cover. Only one
// change may be open at a time.
func (t *Tracker) StageChange(joinAddrs []string, drainIDs []int) (View, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.staged != nil {
		return View{}, ErrChangeActive
	}
	if len(joinAddrs) == 0 && len(drainIDs) == 0 {
		return View{}, errors.New("membership: empty view change")
	}
	next := t.view.clone()
	next.Version++
	for _, id := range drainIDs {
		found := false
		for i := range next.Nodes {
			if next.Nodes[i].ID != id {
				continue
			}
			found = true
			if next.Nodes[i].State != StateActive {
				return View{}, fmt.Errorf("membership: drain node %d in state %q (need active)", id, next.Nodes[i].State)
			}
			next.Nodes[i].State = StateDraining
		}
		if !found {
			return View{}, fmt.Errorf("membership: drain unknown node %d", id)
		}
	}
	for _, addr := range joinAddrs {
		if addr == "" {
			return View{}, errors.New("membership: join with empty address")
		}
		for _, n := range next.Nodes {
			if n.Addr == addr && n.State != StateDead {
				return View{}, fmt.Errorf("membership: address %q already joined as node %d", addr, n.ID)
			}
		}
		next.Nodes = append(next.Nodes, Node{ID: t.nextID, Addr: addr, State: StateJoining})
		t.nextID++
	}
	if len(next.Members()) < 1 {
		return View{}, errors.New("membership: change would leave no members")
	}
	t.staged = &next
	return next.clone(), nil
}

// StageJoin stages the addition of new nodes.
func (t *Tracker) StageJoin(addrs ...string) (View, error) {
	return t.StageChange(addrs, nil)
}

// StageDrain stages the removal of existing nodes.
func (t *Tracker) StageDrain(ids ...int) (View, error) {
	return t.StageChange(nil, ids)
}

// Commit finalizes the staged change: joining nodes become active,
// draining nodes become dead, and the staged view becomes the committed
// one. Panics if no change is staged (the caller owns the lifecycle).
func (t *Tracker) Commit() View {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.staged == nil {
		panic("membership: Commit with no change staged")
	}
	v := t.staged.clone()
	for i := range v.Nodes {
		switch v.Nodes[i].State {
		case StateJoining:
			v.Nodes[i].State = StateActive
		case StateDraining:
			v.Nodes[i].State = StateDead
		}
	}
	t.view = v
	t.staged = nil
	return v.clone()
}

// Abort discards the staged change, reverting to the committed view.
// Joining nodes are recorded dead — their IDs are burned, never reused —
// and draining nodes return to active. Panics if no change is staged.
func (t *Tracker) Abort() View {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.staged == nil {
		panic("membership: Abort with no change staged")
	}
	v := t.view.clone()
	v.Version = t.staged.Version + 1
	// Keep the aborted joiners in the dead ledger so their IDs stay
	// allocated and the next change gets a fresh version history.
	for _, n := range t.staged.Nodes {
		if n.State == StateJoining {
			v.Nodes = append(v.Nodes, Node{ID: n.ID, Addr: n.Addr, State: StateDead})
		}
	}
	t.view = v
	t.staged = nil
	return v.clone()
}
