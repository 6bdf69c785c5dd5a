// Package track follows features (connected components of Voronoi cells —
// voids) across simulation time steps, the temporal analysis the paper
// plans via the feature-tree method of Chen, Silver & Jiang (reference
// [23]; Sec. V: "We will also look to tracking temporal evolution of
// connected components by using the feature tree method").
//
// Features are matched between consecutive snapshots by the overlap of
// their member cell IDs (particle IDs are stable across time, so set
// intersection is exact). The resulting feature tree classifies each
// feature's fate: continuation, merge, split, birth, or death.
package track

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Feature is one component at one time step: a sorted set of member cell
// IDs plus an arbitrary scalar (typically the component volume).
type Feature struct {
	IDs    []int64
	Weight float64
}

// Snapshot is the feature set of one time step.
type Snapshot struct {
	Step     int
	Features []Feature
}

// Link connects feature From of snapshot i to feature To of snapshot i+1.
type Link struct {
	From, To int
	// Overlap is the number of shared member IDs.
	Overlap int
}

// EventType classifies a feature transition.
type EventType int

const (
	// Continuation: one feature maps to exactly one successor and is that
	// successor's only predecessor.
	Continuation EventType = iota
	// Merge: a successor with several predecessors.
	Merge
	// Split: a predecessor with several successors.
	Split
	// Birth: a feature with no predecessor.
	Birth
	// Death: a feature with no successor.
	Death
)

// String implements fmt.Stringer.
func (e EventType) String() string {
	switch e {
	case Continuation:
		return "continuation"
	case Merge:
		return "merge"
	case Split:
		return "split"
	case Birth:
		return "birth"
	case Death:
		return "death"
	default:
		return fmt.Sprintf("EventType(%d)", int(e))
	}
}

// Event is one classified transition between snapshots i and i+1.
type Event struct {
	Type EventType
	// From are feature indices in snapshot i (empty for births).
	From []int
	// To are feature indices in snapshot i+1 (empty for deaths).
	To []int
}

// Tree is the feature tree over a snapshot sequence: Links[i] holds the
// matched transitions between Snapshots[i] and Snapshots[i+1].
type Tree struct {
	Snapshots []Snapshot
	Links     [][]Link
}

// Build matches features across consecutive snapshots. A link is created
// when the ID overlap is at least minOverlapFrac of the smaller feature
// (pass 0 for the default of 0.5).
func Build(snaps []Snapshot, minOverlapFrac float64) (*Tree, error) {
	if minOverlapFrac <= 0 {
		minOverlapFrac = 0.5
	}
	if minOverlapFrac > 1 {
		return nil, fmt.Errorf("track: overlap fraction %g > 1", minOverlapFrac)
	}
	for si := range snaps {
		for fi := range snaps[si].Features {
			if !sort.SliceIsSorted(snaps[si].Features[fi].IDs, func(a, b int) bool {
				return snaps[si].Features[fi].IDs[a] < snaps[si].Features[fi].IDs[b]
			}) {
				return nil, fmt.Errorf("track: snapshot %d feature %d has unsorted IDs", si, fi)
			}
		}
	}
	t := &Tree{Snapshots: snaps}
	if len(snaps) < 2 {
		return t, nil
	}
	t.Links = make([][]Link, len(snaps)-1)
	for i := 0; i+1 < len(snaps); i++ {
		t.Links[i] = matchSnapshots(snaps[i], snaps[i+1], minOverlapFrac)
	}
	return t, nil
}

// matchSnapshots links features by ID overlap.
func matchSnapshots(a, b Snapshot, frac float64) []Link {
	// Invert b: cell ID -> feature index.
	owner := map[int64]int{}
	for bi, f := range b.Features {
		for _, id := range f.IDs {
			owner[id] = bi
		}
	}
	var links []Link
	for ai, f := range a.Features {
		counts := map[int]int{}
		for _, id := range f.IDs {
			if bi, ok := owner[id]; ok {
				counts[bi]++
			}
		}
		bis := slices.Sorted(maps.Keys(counts))
		for _, bi := range bis {
			ov := counts[bi]
			small := len(f.IDs)
			if len(b.Features[bi].IDs) < small {
				small = len(b.Features[bi].IDs)
			}
			if float64(ov) >= frac*float64(small) {
				links = append(links, Link{From: ai, To: bi, Overlap: ov})
			}
		}
	}
	return links
}

// EventsAt classifies the transitions between snapshots i and i+1.
func (t *Tree) EventsAt(i int) ([]Event, error) {
	if i < 0 || i >= len(t.Links) {
		return nil, fmt.Errorf("track: no links at %d", i)
	}
	links := t.Links[i]
	out := map[int][]int{} // from -> successors
	in := map[int][]int{}  // to -> predecessors
	for _, l := range links {
		out[l.From] = append(out[l.From], l.To)
		in[l.To] = append(in[l.To], l.From)
	}

	var events []Event
	// Births: features of i+1 with no predecessor.
	for bi := range t.Snapshots[i+1].Features {
		if len(in[bi]) == 0 {
			events = append(events, Event{Type: Birth, To: []int{bi}})
		}
	}
	// Deaths: features of i with no successor.
	for ai := range t.Snapshots[i].Features {
		if len(out[ai]) == 0 {
			events = append(events, Event{Type: Death, From: []int{ai}})
		}
	}
	// Merges: successors with several predecessors.
	merged := map[int]bool{}
	for _, bi := range slices.Sorted(maps.Keys(in)) {
		preds := in[bi]
		if len(preds) > 1 {
			sort.Ints(preds)
			events = append(events, Event{Type: Merge, From: preds, To: []int{bi}})
			merged[bi] = true
		}
	}
	// Splits: predecessors with several successors.
	split := map[int]bool{}
	for _, ai := range slices.Sorted(maps.Keys(out)) {
		succs := out[ai]
		if len(succs) > 1 {
			sort.Ints(succs)
			events = append(events, Event{Type: Split, From: []int{ai}, To: succs})
			split[ai] = true
		}
	}
	// Continuations: unique both ways, not already part of merge/split.
	for _, ai := range slices.Sorted(maps.Keys(out)) {
		succs := out[ai]
		if len(succs) != 1 || split[ai] {
			continue
		}
		bi := succs[0]
		if len(in[bi]) == 1 && !merged[bi] {
			events = append(events, Event{Type: Continuation, From: []int{ai}, To: []int{bi}})
		}
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].Type != events[b].Type {
			return events[a].Type < events[b].Type
		}
		return eventKey(events[a]) < eventKey(events[b])
	})
	return events, nil
}

func eventKey(e Event) int {
	if len(e.From) > 0 {
		return e.From[0]
	}
	if len(e.To) > 0 {
		return e.To[0] + 1<<20
	}
	return 1 << 30
}
