package sim

import "asap/internal/metrics"

// SecAccumulator batches per-message byte accounting by second, so a
// cascade of thousands of messages costs a handful of atomic adds on the
// shared LoadAccount instead of one per message. Warm-up bytes (negative
// times) collapse into a single slot. The zero value is ready to use; it
// is not safe for concurrent use (keep one per worker).
type SecAccumulator struct {
	secs  []int32
	bytes []int64
}

// Reset empties the accumulator, keeping capacity.
func (a *SecAccumulator) Reset() {
	a.secs = a.secs[:0]
	a.bytes = a.bytes[:0]
}

// Add books bytes at virtual time t.
func (a *SecAccumulator) Add(t Clock, bytes int) {
	sec := secOf(t)
	for i, s := range a.secs {
		if s == sec {
			a.bytes[i] += int64(bytes)
			return
		}
	}
	a.secs = append(a.secs, sec)
	a.bytes = append(a.bytes, int64(bytes))
}

// AddRun books bytes at each time of times — exactly a per-entry Add
// loop, but a run of entries in one second (a walker's non-decreasing
// step times) costs one Add instead of one per entry.
func (a *SecAccumulator) AddRun(times []Clock, bytes int) {
	for i := 0; i < len(times); {
		sec := secOf(times[i])
		j := i + 1
		for j < len(times) && secOf(times[j]) == sec {
			j++
		}
		a.Add(times[i], (j-i)*bytes)
		i = j
	}
}

// secOf is the accumulator slot of virtual time t: its second, with every
// warm-up time collapsed into slot -1.
func secOf(t Clock) int32 {
	if t < 0 {
		return -1
	}
	return int32(t / 1000)
}

// Flush transfers the batched bytes to the system's load account under the
// given message class and resets the accumulator.
func (a *SecAccumulator) Flush(sys *System, class metrics.MsgClass) {
	for i, s := range a.secs {
		t := Clock(s) * 1000
		if s < 0 {
			t = -1
		}
		sys.Account(t, class, int(a.bytes[i]))
	}
	a.Reset()
}
