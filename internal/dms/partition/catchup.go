package partition

import (
	"errors"
	"time"

	"locofs/internal/rpc"
	"locofs/internal/wire"
)

// Catch-up: how an excluded or newly added replica rejoins the live set.
//
// The follower drives it. Starting from its own log tip (nextIndex), it
// fetches batches of missed entries from the leader (OpLogFetch), applies
// them in order through the same applyLocked the live path uses, and
// repeats until a fetch finds it at the leader's tip — at which point the
// leader atomically clears the follower's exclusion, seeds its ack
// watermark, and resumes live fan-out to it. The rejoin decision is the
// leader's, made under its own lock against its own log: between "follower
// is at index i" and "rejoined", no append can slip by unreplicated,
// because appends take the same lock.
//
// While a catch-up session is active the leader pins truncation at the
// session's oldest needed index (catchSession), so the range being
// replayed cannot be pruned out from under it; a session idle past
// catchupGrace stops counting (the follower can restart one later — if
// the range is gone by then, the fetch fails EEXPIRED and the replica
// must be reseeded from a fresh store, which at this layer means
// replacing it in the map).

// CatchUp runs one synchronous catch-up pass against the partition leader:
// fetch missed entries from this node's tip until the leader reports the
// tip reached and readmits this replica to the live fan-out set. No-op on
// leaders and when a pass is already running. Exported for tests and for
// operational prodding; the node also starts passes on its own when it
// sees an append gap or installs a map as a follower.
func (n *Node) CatchUp() error { return n.catchUp("manual") }

// startCatchUp launches an asynchronous catch-up pass unless one is
// already running.
func (n *Node) startCatchUp(why string) {
	if n.catching.Load() {
		return
	}
	go n.catchUp(why)
}

func (n *Node) catchUp(why string) error {
	if !n.catching.CompareAndSwap(false, true) {
		return nil
	}
	defer n.catching.Store(false)

	// The started/caught_up pair is only journaled once the pass finds
	// actual work: the periodic probe resolves to an at-tip no-op every
	// cycle in steady state, and journaling that would drown the ring.
	started := false

	for {
		select {
		case <-n.closed:
			return nil
		default:
		}
		pm, idx := n.cur()
		if idx == 0 {
			return nil
		}
		leader, self := pm.Leader(n.pid), pm.Groups[n.pid][idx]
		n.mu.Lock()
		from := n.nextIndex
		n.mu.Unlock()

		var leaderVer uint64
		st, resp, err := n.callPeerSpec(leader, rpc.CallSpec{
			Op: wire.OpLogFetch, Body: wire.EncodeLogFetch(self, from, catchupBatch),
			Timeout: n.repTimeout, OnMap: func(v uint64) { leaderVer = v },
		})
		if err != nil {
			n.emit("catchup_failed", int64(from), err.Error())
			return err
		}
		if leaderVer > pm.Ver {
			n.pullMap(leader, self)
		}
		if st != wire.StatusOK {
			// EEXPIRED: the needed range was truncated — this replica can
			// no longer be repaired from the log and must be replaced.
			// EWRONGPART: the leader moved; the next map install retries.
			n.emit("catchup_failed", int64(from), st.String())
			return errors.New("catch-up refused: " + st.String())
		}
		fr, err := wire.DecodeLogFetchResp(resp)
		if err != nil {
			n.emit("catchup_failed", int64(from), "bad fetch response")
			return err
		}

		if len(fr.Entries) > 0 && !started {
			started = true
			n.emit("catchup_started", int64(from), why)
		}
		n.mu.Lock()
		for _, le := range fr.Entries {
			if le.Index != n.nextIndex {
				// Raced with a live append that already delivered this
				// index (possible right around rejoin); anything else is
				// a stale batch — either way, skip.
				continue
			}
			n.logAppendLocked(le)
			n.applyInOrderLocked(le)
		}
		n.pruneToLocked(fr.Floor)
		tip := n.nextIndex
		n.mu.Unlock()

		if fr.Rejoined {
			if started {
				n.emit("caught_up", int64(tip), why)
			}
			return nil
		}
		if len(fr.Entries) == 0 {
			// Not rejoined yet made no progress: the leader's tip moved
			// between our fetch and its response assembly, or the response
			// was empty for another reason. Avoid a hot loop.
			n.emit("catchup_failed", int64(from), "no progress")
			return errors.New("catch-up made no progress")
		}
	}
}

// pullMap fetches the newer map a leader's reply header advertised and
// installs it under this replica's slot in it. Map pushes to followers are
// best-effort, so this is how one that was dark during a push converges; a
// replica the newer map no longer lists leaves its own alone.
func (n *Node) pullMap(leader, self string) {
	st, resp, err := n.callPeerSpec(leader, rpc.CallSpec{Op: wire.OpGetMap, Timeout: n.repTimeout})
	if err != nil || st != wire.StatusOK {
		return
	}
	m, err := wire.DecodeClusterMap(resp)
	if err != nil {
		return
	}
	if pid, idx, ok := m.PartitionOf(self); ok && pid == n.pid {
		n.installMap(m, wire.DMSCoords(pid, idx))
	}
}

// serveLogFetch is the leader side of catch-up: serve the requested log
// range, or — when the requester is already at the tip — readmit it to the
// live fan-out set in the same locked step that proves no append is in
// flight past it.
func (n *Node) serveLogFetch(body []byte) (wire.Status, []byte) {
	self, from, max, err := wire.DecodeLogFetch(body)
	if err != nil {
		return wire.StatusInval, nil
	}
	if !n.IsLeader() {
		return wire.StatusWrongPartition, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if pid, _, ok := n.Map().PartitionOf(self); !ok || pid != n.pid {
		// A stray fetcher (stale map, replaced replica) must not be
		// readmitted or allowed to pin truncation.
		return wire.StatusInval, []byte("not a member of this partition's group")
	}
	if from >= n.nextIndex {
		// At the tip: rejoin. From this locked instant every new append
		// fans out to the follower again, so the acked-everywhere
		// invariant covers it from index `from` on.
		if n.excluded[self] {
			delete(n.excluded, self)
			n.emit("follower_rejoined", int64(from), self)
		}
		if from > 0 && from-1 > n.ackMark[self] {
			n.ackMark[self] = from // it has applied everything below from
		}
		delete(n.catch, self)
		return wire.StatusOK, wire.EncodeLogFetchResp(&wire.LogFetchResp{
			Tip: n.nextIndex, Floor: n.firstIndex, Rejoined: true,
		})
	}
	if from < n.firstIndex {
		// The range the replica needs is already truncated: it cannot be
		// repaired from the log. The operator replaces it via a map push
		// (installMap reconciles the old identity away).
		n.emit("catchup_impossible", int64(from), self)
		return wire.StatusExpired, []byte("op log truncated past requested index")
	}
	n.catch[self] = catchSession{from: from, at: n.now()}
	end := from + uint64(max)
	if max == 0 || end > n.nextIndex {
		end = n.nextIndex
	}
	resp := &wire.LogFetchResp{Tip: n.nextIndex, Floor: n.firstIndex}
	resp.Entries = append(resp.Entries, n.log[from-n.firstIndex:end-n.firstIndex]...)
	return wire.StatusOK, wire.EncodeLogFetchResp(resp)
}

// catchupLoop periodically nudges a follower replica toward its leader's
// tip. The common case — replica current, nothing missed — costs one
// OpLogFetch that immediately reports Rejoined; the interesting case is a
// replica that was excluded while partitioned away and would otherwise
// never hear another append to trip catch-up on.
func (n *Node) catchupLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-n.closed:
			return
		case <-t.C:
			if !n.IsLeader() {
				n.catchUp("periodic")
			}
		}
	}
}
