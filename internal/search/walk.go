package search

import (
	"math/rand/v2"
	"sync"

	"asap/internal/content"
	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/trace"
)

// walkRec summarises one walker's traversal: its step records live in the
// scratch's flat times/nodes arrays at [start, start+steps). A lost
// walker had a forwarded copy dropped at its final recorded step — the
// copy was paid for but never arrived, so the walk ends there and the
// final node was never actually visited.
type walkRec struct {
	start     int
	steps     int
	matched   bool
	matchTime sim.Clock
	lost      bool
}

// runWalker walks one random walker from src for at most ttl steps,
// stopping early at the first node matching the query. Step records are
// appended to the scratch arrays. Under a fault plane each forwarded copy
// can be dropped, killing the walker silently (nobody retransmits a
// walker).
func runWalker(sys *sim.System, sc *scratch, rng *rand.Rand, src overlay.NodeID, start overlay.NodeID, t sim.Clock, ttl int, terms []content.Keyword) walkRec {
	rec := walkRec{start: len(sc.nodes)}
	cur, prev := start, src
	if start != src {
		// Seeded walkers (GSA) begin at a neighbour that was already
		// visited by the seed flood; record and test it.
		rec.steps++
		seq := sc.nextSeq()
		if !sys.Arrives(t, metrics.MQuery, src, cur, sc.fkey, seq) {
			sc.step(cur, t)
			rec.lost = true // seed copy dropped: the walker never starts
			return rec
		}
		t += sys.JitterMS(metrics.MQuery, src, cur, sc.fkey, seq)
		sc.step(cur, t)
		if sc.matches(sys, cur, terms) {
			rec.matched, rec.matchTime = true, t
			return rec
		}
	}
	for rec.steps < ttl {
		// A uniformly random live neighbour, avoiding an immediate return
		// to prev when any alternative exists.
		next := overlay.PickAvoiding(sys.G.LiveNeighbors(cur), prev, rng)
		if next < 0 {
			break // dead end
		}
		t += sim.Clock(sys.Latency(cur, next))
		prev, cur = cur, next
		rec.steps++
		seq := sc.nextSeq()
		if !sys.Arrives(t, metrics.MQuery, prev, cur, sc.fkey, seq) {
			sc.step(cur, t)
			rec.lost = true // walker lost in transit
			break
		}
		t += sys.JitterMS(metrics.MQuery, prev, cur, sc.fkey, seq)
		sc.step(cur, t)
		if cur != src && sc.matches(sys, cur, terms) {
			rec.matched, rec.matchTime = true, t
			break
		}
	}
	return rec
}

// step records one walker step: the node reached and the time the walker
// is there (its arrival, or for a dropped copy the time it was sent).
func (s *scratch) step(n overlay.NodeID, t sim.Clock) {
	s.nodes = append(s.nodes, n)
	s.times = append(s.times, t)
}

// settleWalk computes, for all walkers of one query, the resolution time,
// the effective message counts under the checking termination policy, and
// accounts the traffic. It returns the query's result.
//
// A walker stops at its own match, at a dead end, at TTL exhaustion, at
// the copy the fault plane dropped, or at the first check-back whose
// probe time is at or after the query's resolution time (the probe and
// its reply are accounted as control traffic, which baseline masks
// exclude). A hit reply or either check-back leg can itself be dropped: a
// lost hit reply means the requester never learns of the match, a lost
// check-back leg means the walker gets no stop instruction and keeps
// walking.
func settleWalk(sys *sim.System, sc *scratch, recs []walkRec, src overlay.NodeID,
	t0 sim.Clock, qBytes int, extraMsgs int) metrics.SearchResult {

	resolved := noResponse
	bestHop := 0
	hits := 0
	for _, r := range recs {
		if !r.matched {
			continue
		}
		matchNode := sc.nodes[r.start+r.steps-1]
		reply := r.matchTime + sim.Clock(sys.Latency(matchNode, src))
		sc.acc.Add(r.matchTime, sim.QueryHitBytes())
		rseq := sc.nextSeq()
		if !sys.Arrives(r.matchTime, metrics.MQueryHit, matchNode, src, sc.fkey, rseq) {
			continue // hit reply lost: the requester never hears of it
		}
		hits++
		reply += sys.JitterMS(metrics.MQueryHit, matchNode, src, sc.fkey, rseq)
		if reply < resolved {
			resolved = reply
			bestHop = r.steps
		}
	}
	sc.acc.Flush(sys, metrics.MQueryHit)

	msgs := extraMsgs
	for _, r := range recs {
		stop := r.steps
		// A lost walker's final copy never arrived, so no check-back can
		// originate from that step.
		checkable := r.steps
		if r.lost {
			checkable--
		}
		for s := CheckEvery; s <= checkable; s += CheckEvery {
			probeAt := sc.times[r.start+s-1]
			walker := sc.nodes[r.start+s-1]
			sc.probes = append(sc.probes, probeAt)
			if !sys.Arrives(probeAt, metrics.MControl, walker, src, sc.fkey, sc.nextSeq()) {
				continue // probe lost: no reply, no instruction
			}
			sc.probes = append(sc.probes, probeAt)
			if !sys.Arrives(probeAt, metrics.MControl, src, walker, sc.fkey, sc.nextSeq()) {
				continue // stop instruction lost: the walker keeps going
			}
			if resolved != noResponse && probeAt >= resolved {
				stop = s
				break
			}
		}
		msgs += stop
		sc.acc.AddRun(sc.times[r.start:r.start+stop], qBytes)
	}
	sc.acc.Flush(sys, metrics.MQuery)
	sc.acc.AddRun(sc.probes, sim.CheckBackBytes())
	sc.acc.Flush(sys, metrics.MControl)

	res := metrics.SearchResult{Bytes: int64(msgs) * int64(qBytes)}
	if resolved != noResponse {
		res.Success = true
		res.ResponseMS = resolved - t0
		res.Hops = bestHop
		res.Hits = hits
	}
	return res
}

// RandomWalk is the 5-walker random-walk baseline with checking
// termination.
type RandomWalk struct {
	noopEvents
	// Walkers and TTL follow the paper: 5 walkers, TTL 1024.
	Walkers int
	TTL     int
	// Seed drives per-query walk randomness.
	Seed uint64

	sys  *sim.System
	pool *sync.Pool
}

// NewRandomWalk returns a random-walk scheme with the paper's parameters.
func NewRandomWalk(seed uint64) *RandomWalk {
	return &RandomWalk{Walkers: NumWalkers, TTL: WalkTTL, Seed: seed}
}

// Name implements sim.Scheme.
func (w *RandomWalk) Name() string { return "random-walk" }

// Attach implements sim.Scheme.
func (w *RandomWalk) Attach(sys *sim.System) {
	w.sys = sys
	w.pool = newScratchPool(sys.NumNodes())
}

// Search implements sim.Scheme.
func (w *RandomWalk) Search(ev *trace.Event) metrics.SearchResult {
	sys := w.sys
	sc := w.pool.Get().(*scratch)
	defer w.pool.Put(sc)
	sc.begin(faults.Key(ev.Time, ev.Node))

	rng := sc.seedRNG(querySeed(w.Seed, ev.Time, ev.Node), 0x9d8f3c21)
	for k := 0; k < w.Walkers; k++ {
		sc.recs = append(sc.recs, runWalker(sys, sc, rng, ev.Node, ev.Node, ev.Time, w.TTL, ev.Terms))
	}
	return settleWalk(sys, sc, sc.recs, ev.Node, ev.Time, sim.QueryBytes(len(ev.Terms)), 0)
}
