package sim

import "asap/internal/overlay"

// PQItem is one pending message arrival in a cascade simulation. It is
// 16 bytes: a flood forwards only a node's first-popped copy, so the hop
// count of any copy is its sender's recorded hop plus one and need not
// travel with the item.
type PQItem struct {
	T    Clock          // arrival time, ms
	Node overlay.NodeID // receiving node
	From overlay.NodeID // sending node (reverse-path suppression, hop recovery)
}

// PQ is a binary min-heap of cascade arrivals ordered by time. It is a
// bare-metal heap (no container/heap indirection) because flood cascades
// push millions of items per full-scale run. Push and Pop move a hole
// instead of swapping, but take exactly the branches of the textbook
// swap-based sifts, so items with equal T pop in the same order — a
// flood's output depends on that tie order. The zero value is ready to
// use; Reset allows buffer reuse across queries.
type PQ struct {
	items []PQItem
}

// Len returns the number of pending items.
func (q *PQ) Len() int { return len(q.items) }

// Reset empties the queue, keeping its capacity.
func (q *PQ) Reset() { q.items = q.items[:0] }

// Push adds an arrival.
func (q *PQ) Push(it PQItem) {
	q.items = append(q.items, it)
	items := q.items
	i := uint(len(items) - 1)
	for i > 0 {
		parent := (i - 1) / 2
		if items[parent].T <= it.T {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = it
}

// Pop removes and returns the earliest arrival. It panics on an empty
// queue; callers guard with Len.
func (q *PQ) Pop() PQItem {
	items := q.items
	top := items[0]
	last := len(items) - 1
	x := items[last]
	items = items[:last]
	q.items = items
	// Sift the former last item down from the root. A child moves up only
	// when strictly earlier than x, and the right child wins only when
	// strictly earlier than the left: the swap-based sift's exact choices.
	n := uint(len(items))
	i := uint(0)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && items[r].T < items[c].T {
			c = r
		}
		if items[c].T >= x.T {
			break
		}
		items[i] = items[c]
		i = c
	}
	if n > 0 {
		items[i] = x
	}
	return top
}
