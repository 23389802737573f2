package search

import (
	"math"
	"math/rand/v2"
	"sync"

	"asap/internal/content"
	"asap/internal/metrics"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// Paper baseline parameters (§IV-A).
const (
	// FloodTTL is the flooding TTL.
	FloodTTL = 6
	// NumWalkers is the random-walk walker count.
	NumWalkers = 5
	// WalkTTL is the per-walker TTL.
	WalkTTL = 1024
	// GSABudget is the total message budget of one GSA query.
	GSABudget = 8000
	// CheckEvery is how many walk steps pass between walker check-backs
	// with the requester (Lv et al.'s "checking" policy).
	CheckEvery = 4
)

// noResponse marks "no result yet" in cascade simulations.
const noResponse = sim.Clock(math.MaxInt64)

// noopEvents provides the baseline schemes' empty reactions to state
// events: query-based search keeps no distributed state, so content
// changes and churn need no work.
type noopEvents struct{}

// ContentChanged implements sim.Scheme with no work.
func (noopEvents) ContentChanged(sim.Clock, overlay.NodeID, content.DocID, bool) {}

// NodeJoined implements sim.Scheme with no work.
func (noopEvents) NodeJoined(sim.Clock, overlay.NodeID) {}

// NodeLeft implements sim.Scheme with no work.
func (noopEvents) NodeLeft(sim.Clock, overlay.NodeID) {}

// Tick implements sim.Scheme with no work.
func (noopEvents) Tick(sim.Clock) {}

// LoadMask returns the baseline accounting mask: query messages only.
func (noopEvents) LoadMask() metrics.ClassMask { return metrics.BaselineLoadMask }

// PureSearch implements sim.PureSearcher for every baseline: query-based
// search keeps no distributed state, so a Search outcome is a pure
// function of the batch-frozen system state and the query event (each
// query draws from its own querySeed-derived RNG stream, never a shared
// one). The sharded replay engine may therefore run baseline queries in
// any lane without conflict analysis.
func (noopEvents) PureSearch() {}

// scratch is per-worker reusable cascade state. The stamp/epoch trick
// avoids clearing the node-indexed arrays between queries.
type scratch struct {
	stamp  []uint32 // flood: node → epoch it was visited in
	epoch  uint32
	hop    []int32 // flood: hop count of a visited node's first copy
	pq     sim.PQ
	times  []sim.Clock      // walker step times
	nodes  []overlay.NodeID // walker step nodes
	recs   []walkRec        // the query's walkers
	probes []sim.Clock      // walker check-back message times, in send order
	acc    sim.SecAccumulator

	// Walks: NodeMatches memo. tested[n] == epoch means node n was
	// matched against this query's terms, with outcome hit[n]. Walkers
	// revisit nodes often, and the match test is a postings scan.
	tested []uint32
	hit    []bool

	// Walks: the query's RNG, re-seeded per query (see seedRNG).
	pcg rand.PCG
	rng *rand.Rand

	// Fault-plane message stream of the current query (see faults.Key):
	// fkey names the query, fseq numbers its messages, so drop decisions
	// depend on the query alone, never on worker scheduling.
	fkey uint64
	fseq uint32
}

// nextSeq returns the query's next message sequence number.
func (s *scratch) nextSeq() uint32 {
	v := s.fseq
	s.fseq++
	return v
}

func newScratch(n int) *scratch {
	s := &scratch{
		stamp:  make([]uint32, n),
		hop:    make([]int32, n),
		tested: make([]uint32, n),
		hit:    make([]bool, n),
	}
	s.rng = rand.New(&s.pcg)
	return s
}

func newScratchPool(n int) *sync.Pool {
	return &sync.Pool{New: func() any { return newScratch(n) }}
}

// begin starts a fresh query in this scratch, keyed for the fault plane.
func (s *scratch) begin(fkey uint64) {
	s.fkey = fkey
	s.fseq = 0
	s.epoch++
	if s.epoch == 0 { // wrapped: clear stamps once per 2^32 queries
		clear(s.stamp)
		clear(s.tested)
		s.epoch = 1
	}
	s.pq.Reset()
	s.acc.Reset()
	s.times = s.times[:0]
	s.nodes = s.nodes[:0]
	s.recs = s.recs[:0]
	s.probes = s.probes[:0]
}

// seedRNG re-seeds the scratch's RNG for one query: it then draws exactly
// the stream of rand.New(rand.NewPCG(seed, stream)).
func (s *scratch) seedRNG(seed, stream uint64) *rand.Rand {
	s.pcg.Seed(seed, stream)
	return s.rng
}

func (s *scratch) seen(n overlay.NodeID) bool { return s.stamp[n] == s.epoch }

func (s *scratch) visit(n overlay.NodeID, hop int32) {
	s.stamp[n] = s.epoch
	s.hop[n] = hop
}

// matches is sys.NodeMatches(n, terms) for the current query's terms,
// computed once per node per query.
func (s *scratch) matches(sys *sim.System, n overlay.NodeID, terms []content.Keyword) bool {
	if s.tested[n] != s.epoch {
		s.tested[n] = s.epoch
		s.hit[n] = sys.NodeMatches(n, terms)
	}
	return s.hit[n]
}

// querySeed derives a deterministic per-query RNG seed so results do not
// depend on worker scheduling.
func querySeed(base uint64, t sim.Clock, node overlay.NodeID) uint64 {
	x := base ^ uint64(t)<<20 ^ uint64(uint32(node))
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
