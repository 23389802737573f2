package overlay

import "math/rand/v2"

// PickAvoiding returns a uniformly random element of nbs, avoiding an
// immediate return to prev when any alternative exists: prev itself when
// it is the only element, -1 when nbs is empty. It is the walkers' next-hop
// draw, shared by ad delivery and the baseline searches.
//
// Adjacency holds no duplicate edges, so prev appears at most once: one
// early-exiting scan for it replaces the count-then-select double scan,
// with the same single rng.IntN draw over the non-prev count and the same
// pick as selecting the k-th non-prev element in view order.
func PickAvoiding(nbs []NodeID, prev NodeID, rng *rand.Rand) NodeID {
	if len(nbs) == 0 {
		return -1
	}
	pi := -1
	for i, nb := range nbs {
		if nb == prev {
			pi = i
			break
		}
	}
	notPrev := len(nbs)
	if pi >= 0 {
		notPrev--
	}
	if notPrev == 0 {
		return prev
	}
	k := rng.IntN(notPrev)
	if pi >= 0 && k >= pi {
		k++
	}
	return nbs[k]
}
