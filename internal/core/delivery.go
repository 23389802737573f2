package core

import (
	"asap/internal/content"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/obs"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// nextSeq increments a local per-delivery message counter. Together with
// the delivery key it names each forwarded copy uniquely, so the fault
// plane's drop decisions replay identically run over run.
func nextSeq(p *uint32) uint32 {
	v := *p
	*p++
	return v
}

// deliver pushes one ad through the overlay under the configured
// forwarding algorithm, caching it at every reached node whose interests
// intersect targeting (the delivery topic set; normally the ad's own
// topics, widened for patches). Deliveries run on the runner thread only.
//
// Under a fault plane, forwarded copies can be lost: a lost flood copy
// prunes that branch (the node may still be reached another way), a lost
// walk copy kills the walker. Senders pay for lost copies — the bytes are
// on the wire either way — so ad coverage degrades under loss while ad
// traffic does not.
func (s *Scheme) deliver(t sim.Clock, snap *adSnapshot, kind adKind, targeting content.ClassSet) {
	// Scenario free riders send no ads at all — publishWith already gates
	// new publications, and this catches refresh deliveries of snapshots
	// published before the mask engaged.
	if s.sys.FreeRider(snap.src) {
		return
	}
	// One seqlock section brackets the whole delivery (every applyAd within
	// it included); searches cannot run concurrently with any of it.
	s.beginApply()
	defer s.endApply()
	msgBytes := snap.wireBytes(kind)
	var class metrics.MsgClass
	switch kind {
	case adFull:
		class = metrics.MAdFull
	case adPatch:
		class = metrics.MAdPatch
	default:
		class = metrics.MAdRefresh
	}
	// One drop stream per delivery: (time, source) names the delivery,
	// folded with (version, kind) to separate a refresh from the full ad
	// that replaced it within the same second.
	dkey := faults.Fold(faults.Key(int64(t), snap.src), uint64(snap.version)<<2|uint64(kind))
	var dseq uint32

	// Warm-up deliveries (t < 0) invest the full per-topic budget to seed
	// the caches; everything published mid-run is an update of already-
	// seeded state and spends a fraction of it.
	budget := max(1, targeting.Count()) * s.cfg.BudgetUnit
	if t >= 0 {
		budget = max(1, budget/s.cfg.UpdateBudgetDiv)
	}
	switch s.cfg.Delivery {
	case FLD:
		td := s.obs.Begin()
		s.deliverFlood(t, snap, kind, targeting, msgBytes, class, dkey, &dseq)
		s.obs.End(obs.PDeliverFlood, td)
	case RW:
		td := s.obs.Begin()
		s.deliverWalk(t, snap, kind, targeting, msgBytes, s.walkStarts(snap.src, s.cfg.Walkers), budget, class, dkey, &dseq)
		s.obs.End(obs.PDeliverWalk, td)
	case GSAKind:
		td := s.obs.Begin()
		seeds := s.liveNeighbors(snap.src)
		s.deliverWalk(t, snap, kind, targeting, msgBytes, seeds, budget, class, dkey, &dseq)
		s.obs.End(obs.PDeliverWalk, td)
	}
	s.acc.Flush(s.sys, class)
}

// walkStarts returns w walker start points: the source's live neighbours,
// cycled if w exceeds the neighbourhood. The result aliases s.wlkBuf and
// is valid until the next call. It copies out of the live view that
// liveNeighbors returns, never into it, so a liveNeighbors result held by
// a caller (the GSA seed path) survives a walkStarts call unclobbered —
// see TestWalkStartsLiveViewAliasing.
func (s *Scheme) walkStarts(src overlay.NodeID, w int) []overlay.NodeID {
	live := s.liveNeighbors(src)
	if len(live) == 0 {
		return nil
	}
	starts := s.wlkBuf[:0]
	for i := 0; i < w; i++ {
		starts = append(starts, live[i%len(live)])
	}
	s.wlkBuf = starts
	return starts
}

// liveNeighbors returns n's live neighbours; in hierarchical mode only
// super-peer neighbours qualify (ads travel the backbone; leaves neither
// forward nor cache). The result is the overlay's packed live view — no
// copy, no per-edge liveness test — shared with the graph and valid until
// the next overlay mutation. It does NOT alias s.wlkBuf: walkStarts may
// copy from it into wlkBuf while a caller still holds it (the GSA seed
// path does exactly that across a whole delivery).
func (s *Scheme) liveNeighbors(n overlay.NodeID) []overlay.NodeID {
	return s.eligibleView(n)
}

// deliverFlood floods the ad with TTL FloodTTL and duplicate suppression;
// every reached node applies it once. A dropped copy leaves its receiver
// unstamped, so a later surviving copy (from another branch) still reaches
// it.
func (s *Scheme) deliverFlood(t sim.Clock, snap *adSnapshot, kind adKind, targeting content.ClassSet, msgBytes int, class metrics.MsgClass, dkey uint64, dseq *uint32) {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	queue := append(s.floodQ[:0], floodItem{snap.src, 0})
	s.stamp[snap.src] = s.epoch
	faultFree := s.sys.FaultFree()
	for i := 0; i < len(queue); i++ {
		it := queue[i]
		if it.node != snap.src {
			s.applyAd(t, it.node, snap, kind, targeting, dkey, dseq)
		}
		if it.hop >= s.cfg.FloodTTL {
			continue
		}
		if s.sys.FreeRider(it.node) {
			continue // free riders receive ads but never forward them
		}
		// The eligible view is pre-filtered: no per-edge Alive or
		// cacheEligible test on the flood's inner loop.
		view := s.eligibleView(it.node)
		if faultFree {
			// No fault plane: every copy arrives and no drop-seq stream is
			// consumed, so accounting and message counting batch to one
			// call per node and the per-edge work is just the
			// duplicate-suppression stamp.
			if len(view) > 0 {
				s.acc.Add(t, msgBytes*len(view))
				s.obs.CountMsgN(int64(t), class, len(view))
			}
			for _, nb := range view {
				if s.stamp[nb] != s.epoch {
					s.stamp[nb] = s.epoch
					queue = append(queue, floodItem{nb, it.hop + 1})
				}
			}
			continue
		}
		for _, nb := range view {
			s.acc.Add(t, msgBytes) // the copy is sent even to nodes that saw it
			if !s.sys.Arrives(t, class, it.node, nb, dkey, nextSeq(dseq)) {
				continue // copy lost; nb may still get one via another edge
			}
			if s.stamp[nb] == s.epoch {
				continue
			}
			s.stamp[nb] = s.epoch
			queue = append(queue, floodItem{nb, it.hop + 1})
		}
	}
	s.floodQ = queue
}

// floodItem is one BFS queue entry of deliverFlood: a reached node and its
// hop distance from the source. The queue lives on the Scheme (runner
// thread only) and is reused across deliveries.
type floodItem struct {
	node overlay.NodeID
	hop  int
}

// deliverWalk forwards the ad along random walks from the given start
// nodes under a total message budget split evenly across walkers. Every
// visited node applies the ad (re-applications only bump freshness). A
// walker whose forwarded copy is lost dies on the spot — nobody detects
// the loss, so its remaining budget is simply wasted.
func (s *Scheme) deliverWalk(t sim.Clock, snap *adSnapshot, kind adKind, targeting content.ClassSet, msgBytes int, starts []overlay.NodeID, budget int, class metrics.MsgClass, dkey uint64, dseq *uint32) {
	if len(starts) == 0 {
		return
	}
	perWalker := budget / len(starts)
	if perWalker < 1 {
		perWalker = 1
	}
	if s.sys.FaultFree() {
		// No fault plane: no copy is ever lost, so walkers never die in
		// transit and the per-step Arrives calls (and the drop-seq stream
		// they would consume) vanish; accounting batches to one call per
		// delivery — every step happens at the same virtual time t.
		sent := 0
		for _, start := range starts {
			sent++
			s.applyAd(t, start, snap, kind, targeting, dkey, dseq)
			if s.sys.FreeRider(start) {
				continue // free riders kill walkers: received, never forwarded
			}
			cur, prev := start, snap.src
			for step := 1; step < perWalker; step++ {
				next := s.pickNextHop(cur, prev, targeting)
				if next < 0 {
					break
				}
				prev, cur = cur, next
				sent++
				if cur != snap.src {
					s.applyAd(t, cur, snap, kind, targeting, dkey, dseq)
				}
				if s.sys.FreeRider(cur) {
					break
				}
			}
		}
		s.acc.Add(t, msgBytes*sent)
		s.obs.CountMsgN(int64(t), class, sent)
		return
	}
	for _, start := range starts {
		cur, prev := start, snap.src
		s.acc.Add(t, msgBytes) // source → start
		if !s.sys.Arrives(t, class, snap.src, cur, dkey, nextSeq(dseq)) {
			continue // seed copy lost: this walker never starts
		}
		s.applyAd(t, cur, snap, kind, targeting, dkey, dseq)
		if s.sys.FreeRider(cur) {
			continue // free riders kill walkers: received, never forwarded
		}
		for step := 1; step < perWalker; step++ {
			next := s.pickNextHop(cur, prev, targeting)
			if next < 0 {
				break
			}
			prev, cur = cur, next
			s.acc.Add(t, msgBytes)
			if !s.sys.Arrives(t, class, prev, cur, dkey, nextSeq(dseq)) {
				break // walker lost in transit
			}
			if cur != snap.src {
				s.applyAd(t, cur, snap, kind, targeting, dkey, dseq)
			}
			if s.sys.FreeRider(cur) {
				break
			}
		}
	}
}

// pickNextHop chooses a delivery walker's next hop. With BiasedDelivery
// it prefers neighbours whose (group) interests intersect the ad's
// targeting topics, steering ads toward potential consumers at equal
// budget; otherwise it falls back to the uniform pick.
func (s *Scheme) pickNextHop(cur, prev overlay.NodeID, targeting content.ClassSet) overlay.NodeID {
	nbs := s.eligibleView(cur)
	if !s.cfg.BiasedDelivery {
		return s.pickLiveNeighbor(nbs, prev)
	}
	interested, other := 0, 0
	for _, nb := range nbs {
		if nb == prev {
			continue
		}
		if s.groupInterests(nb).Intersects(targeting) {
			interested++
		} else {
			other++
		}
	}
	if interested == 0 && other == 0 {
		return s.pickLiveNeighbor(nbs, prev) // only prev (or nothing) left
	}
	wantInterested := interested > 0
	pool := interested
	if !wantInterested {
		pool = other
	}
	k := s.rng.IntN(pool)
	for _, nb := range nbs {
		if nb == prev {
			continue
		}
		if s.groupInterests(nb).Intersects(targeting) != wantInterested {
			continue
		}
		if k == 0 {
			return nb
		}
		k--
	}
	return -1 // unreachable
}

// pickLiveNeighbor picks a uniformly random node of the live view nbs,
// avoiding an immediate return to prev when alternatives exist. It is
// small enough to inline, so the walk path makes one call, to
// overlay.PickAvoiding's single-scan draw.
func (s *Scheme) pickLiveNeighbor(nbs []overlay.NodeID, prev overlay.NodeID) overlay.NodeID {
	return overlay.PickAvoiding(nbs, prev, s.rng)
}

// applyAd lets node v react to an arriving ad: cache it when interesting,
// and resolve version gaps by fetching the source's current full ad
// directly (a control request plus a full-ad reply). Either leg of that
// fetch can be lost; the gap then persists until the next ad (or the next
// gap) retriggers it.
func (s *Scheme) applyAd(t sim.Clock, v overlay.NodeID, snap *adSnapshot, kind adKind, targeting content.ClassSet, dkey uint64, dseq *uint32) {
	if !s.cacheEligible(v) || !s.groupInterests(v).Intersects(targeting) {
		return
	}
	ns := &s.nodes[v]
	outcome := ns.store(snap, kind, t, s.cfg.CacheCapacity)
	if outcome != storedGap {
		return
	}
	// Version gap: v's copy is too old to patch. Fetch the current full ad
	// from the source (alive: it just sent this ad).
	cur := s.publishedSnapshot(snap.src)
	if cur == nil {
		return
	}
	s.sys.Account(t, metrics.MControl, sim.HeaderBytes)
	if !s.sys.Arrives(t, metrics.MControl, v, snap.src, dkey, nextSeq(dseq)) {
		return // fetch request lost: the reply is never sent
	}
	s.sys.Account(t, metrics.MAdFull, cur.wireBytes(adFull))
	if !s.sys.Arrives(t, metrics.MAdFull, snap.src, v, dkey, nextSeq(dseq)) {
		return // reply lost: v keeps its stale copy
	}
	ns.store(cur, adFull, t, s.cfg.CacheCapacity)
}
