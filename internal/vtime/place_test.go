package vtime

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPlaceMatchesEarliestFit: the tail-first search of place finds the gap
// a scan of every reservation finds. Seeded requests become ready past the
// tail, in the gaps one or several reservations before it, below the prune
// floor, and after Reset; each grant is compared with a brute-force earliest
// fit over every interval granted since the last Reset, which never prunes.
func TestPlaceMatchesEarliestFit(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	r := NewResource("r")
	var granted []interval // every grant since the last Reset, by start
	var floor Time
	var landed [3]int // grants with 0, 1 and several reservations after them
	clamped, afterReset := 0, 0
	for round := range 4 {
		if round > 0 {
			r.Reset()
			granted, floor = granted[:0], 0
		}
		for n := range 2500 {
			live := r.busy[r.head:]
			ready := Time(rng.Int63n(50))
			switch k := rng.Intn(10); {
			case len(live) < 2 || k < 3: // at or past the tail
				ready += r.lastEnd
			case k < 5: // one reservation before the tail
				ready = live[len(live)-2].start + ready%3
			case k < 8: // several reservations before it
				ready = live[len(live)-2-rng.Intn(min(len(live)-1, 30))].start + ready%3
			default: // below a floor raised into the live list
				floor = max(floor, live[len(live)/2].end+Time(rng.Int63n(20)))
				ready = floor - 1 - ready%50
			}
			svc := Duration(1 + rng.Int63n(20))
			if rng.Intn(20) == 0 {
				svc *= 40 // a request longer than most gaps
			}

			want := earliestFit(granted, max(ready, floor), svc)
			q := [1]Request{{Resource: r, Ready: ready, Service: svc}}
			submit("q", q[:], floor)
			if q[0].Start != want || q[0].End != want.Add(svc) {
				t.Fatalf("round %d request %d (ready %d, service %d, floor %d): granted [%d, %d), earliest fit [%d, %d)",
					round, n, ready, svc, floor, q[0].Start, q[0].End, want, want.Add(svc))
			}

			iv := interval{q[0].Start, q[0].End}
			i, _ := slices.BinarySearchFunc(granted, iv, func(a, b interval) int { return int(a.start - b.start) })
			granted = slices.Insert(granted, i, iv)
			landed[min(len(granted)-1-i, 2)]++
			if ready < floor {
				clamped++
			}
			if round > 0 && n < 100 {
				afterReset++
			}
		}
	}
	if landed[0] == 0 || landed[1] == 0 || landed[2] == 0 || clamped == 0 || afterReset == 0 {
		t.Errorf("grants at the tail %d, one before it %d, several before it %d, below the floor %d, after Reset %d: want each",
			landed[0], landed[1], landed[2], clamped, afterReset)
	}
}

// earliestFit is the earliest start at or after ready at which a request of
// service fits between the intervals, found by moving past every interval
// it overlaps until it overlaps none.
func earliestFit(ivs []interval, ready Time, service Duration) Time {
	for moved := true; moved; {
		moved = false
		for _, iv := range ivs {
			if iv.start < ready.Add(service) && iv.end > ready {
				ready, moved = iv.end, true
			}
		}
	}
	return ready
}
