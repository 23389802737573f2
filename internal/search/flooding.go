package search

import (
	"sync"

	"asap/internal/faults"
	"asap/internal/metrics"
	"asap/internal/sim"
	"asap/internal/trace"
)

// Flooding is the TTL-bounded flood baseline: the requester sends the
// query to all neighbours; each node forwards the first copy it receives
// to all neighbours but the sender while TTL remains; every matching node
// replies directly to the requester.
type Flooding struct {
	noopEvents
	// TTL is the flood radius (paper: 6).
	TTL int

	sys  *sim.System
	pool *sync.Pool
}

// NewFlooding returns a flooding scheme with the paper's TTL.
func NewFlooding() *Flooding { return &Flooding{TTL: FloodTTL} }

// Name implements sim.Scheme.
func (f *Flooding) Name() string { return "flooding" }

// Attach implements sim.Scheme.
func (f *Flooding) Attach(sys *sim.System) {
	f.sys = sys
	f.pool = newScratchPool(sys.NumNodes())
}

// Search simulates one flood cascade. Every queue push is one query
// message (duplicates included — a node that already saw the query still
// receives the copies its neighbours send). Under a fault plane a dropped
// copy costs its sender the message but never arrives (the branch is
// pruned unless another copy reaches the node), and a dropped hit reply
// costs the responder the bytes without the requester learning of the
// hit.
func (f *Flooding) Search(ev *trace.Event) metrics.SearchResult {
	sys := f.sys
	sc := f.pool.Get().(*scratch)
	defer f.pool.Put(sc)
	sc.begin(faults.Key(ev.Time, ev.Node))

	src := ev.Node
	qBytes := sim.QueryBytes(len(ev.Terms))
	t0 := ev.Time

	best := noResponse
	bestHop := int32(0)
	msgs := 0
	hits := 0

	// A node forwards only its first-popped copy, so every copy's hop
	// count is its sender's recorded hop plus one; the source's own item
	// (From == Node == src) pops first, at hop 0.
	sc.pq.Push(sim.PQItem{T: t0, Node: src, From: src})
	for sc.pq.Len() > 0 {
		it := sc.pq.Pop()
		if sc.seen(it.Node) {
			continue // duplicate copy: already counted at send time
		}
		hop := int32(0)
		if it.Node != src {
			hop = sc.hop[it.From] + 1
		}
		sc.visit(it.Node, hop)

		if it.Node != src && sys.NodeMatches(it.Node, ev.Terms) {
			reply := it.T + sim.Clock(sys.Latency(it.Node, src))
			sc.acc.Add(it.T, sim.QueryHitBytes())
			rseq := sc.nextSeq()
			if sys.Arrives(it.T, metrics.MQueryHit, it.Node, src, sc.fkey, rseq) {
				hits++
				reply += sys.JitterMS(metrics.MQueryHit, it.Node, src, sc.fkey, rseq)
				if reply < best {
					best = reply
					bestHop = hop
				}
			}
		}
		if int(hop) >= f.TTL {
			continue
		}
		for _, nb := range sys.G.LiveNeighbors(it.Node) {
			if nb == it.From {
				continue
			}
			msgs++
			seq := sc.nextSeq()
			if !sys.Arrives(it.T, metrics.MQuery, it.Node, nb, sc.fkey, seq) {
				continue // copy lost; nb may still get one via another edge
			}
			sc.pq.Push(sim.PQItem{
				T: it.T + sim.Clock(sys.Latency(it.Node, nb)) +
					sys.JitterMS(metrics.MQuery, it.Node, nb, sc.fkey, seq),
				Node: nb,
				From: it.Node,
			})
		}
	}
	sc.acc.Flush(sys, metrics.MQueryHit)
	queryBytes := int64(msgs) * int64(qBytes)
	// Query bytes are spread across the cascade; bucketing them all at t0
	// is accurate to within the flood's ~1s lifetime.
	sys.Account(t0, metrics.MQuery, int(queryBytes))

	res := metrics.SearchResult{Bytes: queryBytes}
	if best != noResponse {
		res.Success = true
		res.ResponseMS = best - t0
		res.Hops = int(bestHop)
		res.Hits = hits
	}
	return res
}
