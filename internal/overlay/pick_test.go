package overlay

import (
	"math/rand/v2"
	"testing"
)

// pickCountSelect is the count-then-select reference for PickAvoiding:
// count the non-prev elements, draw k, return the k-th non-prev one.
func pickCountSelect(nbs []NodeID, prev NodeID, rng *rand.Rand) NodeID {
	notPrev := 0
	for _, nb := range nbs {
		if nb != prev {
			notPrev++
		}
	}
	if len(nbs) == 0 {
		return -1
	}
	if notPrev == 0 {
		return prev
	}
	k := rng.IntN(notPrev)
	for _, nb := range nbs {
		if nb == prev {
			continue
		}
		if k == 0 {
			return nb
		}
		k--
	}
	return -1
}

// TestPickAvoidingMatchesCountSelect: on random duplicate-free views, with
// prev absent, first, last, in the middle or the only element, the single
// scan picks what the reference picks and leaves the RNG in the same
// state (the next draws agree).
func TestPickAvoidingMatchesCountSelect(t *testing.T) {
	gen := rand.New(rand.NewPCG(11, 12))
	for i := 0; i < 5000; i++ {
		n := gen.IntN(9)
		nbs := make([]NodeID, n)
		for j, p := range gen.Perm(50)[:n] {
			nbs[j] = NodeID(p)
		}
		prev := NodeID(99) // absent
		if n > 0 && gen.IntN(4) > 0 {
			prev = nbs[gen.IntN(n)]
		}
		seed := gen.Uint64()
		a := rand.New(rand.NewPCG(seed, 5))
		b := rand.New(rand.NewPCG(seed, 5))
		got, want := PickAvoiding(nbs, prev, a), pickCountSelect(nbs, prev, b)
		if got != want {
			t.Fatalf("view %v prev %d: picked %d, reference %d", nbs, prev, got, want)
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("view %v prev %d: RNG state diverged after the pick", nbs, prev)
		}
	}
}
