package sim

import (
	"math/rand/v2"
	"testing"

	"asap/internal/overlay"
)

// swapItem and swapPQ are the original 24-byte, swap-based heap, kept as
// the oracle for PQ's pop order: a flood's output depends on which of
// several equal-T items pops first.
type swapItem struct {
	T    Clock
	Node overlay.NodeID
	From overlay.NodeID
	Hop  int32
}

type swapPQ struct{ items []swapItem }

func (q *swapPQ) push(it swapItem) {
	q.items = append(q.items, it)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.items[parent].T <= q.items[i].T {
			break
		}
		q.items[parent], q.items[i] = q.items[i], q.items[parent]
		i = parent
	}
}

func (q *swapPQ) pop() swapItem {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	n := len(q.items)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.items[l].T < q.items[smallest].T {
			smallest = l
		}
		if r < n && q.items[r].T < q.items[smallest].T {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
	return top
}

// TestPQMatchesSwapHeap: random interleaved pushes and pops, with times
// drawn from a handful of values so most comparisons are ties, pop in
// exactly the oracle's order. Every pushed item carries a unique Node, so
// any tie reordering shows.
func TestPQMatchesSwapHeap(t *testing.T) {
	for _, spread := range []int{1, 2, 3, 8, 1000} {
		rng := rand.New(rand.NewPCG(uint64(spread), 7))
		var q PQ
		var oracle swapPQ
		id := overlay.NodeID(0)
		for round := 0; round < 20; round++ {
			q.Reset()
			oracle.items = oracle.items[:0]
			for op := 0; op < 2000; op++ {
				if q.Len() != len(oracle.items) {
					t.Fatalf("spread %d: Len %d, oracle %d", spread, q.Len(), len(oracle.items))
				}
				if q.Len() > 0 && rng.IntN(5) < 2 {
					got, want := q.Pop(), oracle.pop()
					if got.T != want.T || got.Node != want.Node || got.From != want.From {
						t.Fatalf("spread %d round %d op %d: popped %+v, oracle %+v", spread, round, op, got, want)
					}
					continue
				}
				ts := Clock(rng.IntN(spread))
				id++
				q.Push(PQItem{T: ts, Node: id, From: -id})
				oracle.push(swapItem{T: ts, Node: id, From: -id, Hop: int32(id)})
			}
			for q.Len() > 0 {
				got, want := q.Pop(), oracle.pop()
				if got.T != want.T || got.Node != want.Node || got.From != want.From {
					t.Fatalf("spread %d round %d drain: popped %+v, oracle %+v", spread, round, got, want)
				}
			}
			if len(oracle.items) != 0 {
				t.Fatalf("spread %d: oracle kept %d items", spread, len(oracle.items))
			}
		}
	}
}
