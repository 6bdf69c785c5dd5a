package track

import (
	"testing"
)

func feat(ids ...int64) Feature { return Feature{IDs: ids} }

func snap(step int, fs ...Feature) Snapshot { return Snapshot{Step: step, Features: fs} }

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]Snapshot{snap(0, Feature{IDs: []int64{3, 1}})}, 0); err == nil {
		t.Error("unsorted IDs accepted")
	}
	if _, err := Build(nil, 2); err == nil {
		t.Error("overlap fraction > 1 accepted")
	}
	tree, err := Build([]Snapshot{snap(0, feat(1, 2))}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Links) != 0 {
		t.Error("single snapshot should have no links")
	}
}

func TestContinuation(t *testing.T) {
	tree, err := Build([]Snapshot{
		snap(0, feat(1, 2, 3), feat(10, 11)),
		snap(1, feat(1, 2, 3, 4), feat(10, 11, 12)),
	}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	events, err := tree.EventsAt(0)
	if err != nil {
		t.Fatal(err)
	}
	cont := 0
	for _, e := range events {
		if e.Type != Continuation {
			t.Errorf("unexpected event %v", e)
		}
		cont++
	}
	if cont != 2 {
		t.Errorf("continuations = %d, want 2", cont)
	}
}

func TestMerge(t *testing.T) {
	tree, err := Build([]Snapshot{
		snap(0, feat(1, 2, 3), feat(7, 8, 9)),
		snap(1, feat(1, 2, 3, 7, 8, 9)),
	}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	events, err := tree.EventsAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != Merge {
		t.Fatalf("events = %v, want one merge", events)
	}
	if len(events[0].From) != 2 || events[0].To[0] != 0 {
		t.Errorf("merge shape: %+v", events[0])
	}
}

func TestSplit(t *testing.T) {
	tree, err := Build([]Snapshot{
		snap(0, feat(1, 2, 3, 7, 8, 9)),
		snap(1, feat(1, 2, 3), feat(7, 8, 9)),
	}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	events, err := tree.EventsAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != Split {
		t.Fatalf("events = %v, want one split", events)
	}
	if len(events[0].To) != 2 {
		t.Errorf("split successors: %+v", events[0])
	}
}

func TestBirthAndDeath(t *testing.T) {
	tree, err := Build([]Snapshot{
		snap(0, feat(1, 2, 3), feat(50, 51, 52)),
		snap(1, feat(1, 2, 3), feat(100, 101)),
	}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	events, err := tree.EventsAt(0)
	if err != nil {
		t.Fatal(err)
	}
	var types []EventType
	for _, e := range events {
		types = append(types, e.Type)
	}
	wantTypes := map[EventType]int{Continuation: 1, Birth: 1, Death: 1}
	got := map[EventType]int{}
	for _, ty := range types {
		got[ty]++
	}
	for ty, n := range wantTypes {
		if got[ty] != n {
			t.Errorf("%v events = %d, want %d (all: %v)", ty, got[ty], n, types)
		}
	}
}

func TestOverlapFractionThreshold(t *testing.T) {
	// Features share 1 of 4 IDs: linked at frac 0.25, not at 0.5.
	snaps := []Snapshot{
		snap(0, feat(1, 2, 3, 4)),
		snap(1, feat(4, 10, 11, 12)),
	}
	loose, err := Build(snaps, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(loose.Links[0]) != 1 {
		t.Errorf("loose threshold: %d links, want 1", len(loose.Links[0]))
	}
	strict, err := Build(snaps, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Links[0]) != 0 {
		t.Errorf("strict threshold: %d links, want 0", len(strict.Links[0]))
	}
}

func TestLineageFollowsLargestBranch(t *testing.T) {
	// Feature 0 splits; its lineage follows the bigger piece; then merges.
	tree, err := Build([]Snapshot{
		snap(0, feat(1, 2, 3, 4, 5)),
		snap(1, feat(1, 2, 3), feat(4, 5)),
		snap(2, feat(1, 2, 3, 4, 5)),
	}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	path := lineage(tree, 0)
	if len(path) != 3 {
		t.Fatalf("lineage = %v", path)
	}
	if path[1] != 0 {
		t.Errorf("lineage should follow the larger split piece: %v", path)
	}
	if path[2] != 0 {
		t.Errorf("lineage should reach the merged feature: %v", path)
	}
}

func TestLineageEndsAtDeath(t *testing.T) {
	tree, err := Build([]Snapshot{
		snap(0, feat(1, 2)),
		snap(1, feat(900)),
		snap(2, feat(900)),
	}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	path := lineage(tree, 0)
	if len(path) != 1 {
		t.Errorf("dead feature lineage = %v, want just the start", path)
	}
}

func TestEventsAtRange(t *testing.T) {
	tree, err := Build([]Snapshot{snap(0, feat(1)), snap(1, feat(1))}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.EventsAt(5); err == nil {
		t.Error("out-of-range EventsAt accepted")
	}
	if _, err := tree.EventsAt(-1); err == nil {
		t.Error("negative EventsAt accepted")
	}
}

func TestEventTypeString(t *testing.T) {
	names := map[EventType]string{
		Continuation: "continuation", Merge: "merge", Split: "split",
		Birth: "birth", Death: "death", EventType(99): "EventType(99)",
	}
	for ty, want := range names {
		if got := ty.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(ty), got, want)
		}
	}
}

// lineage follows a feature forward through continuations (and the largest
// branch of splits and merges), returning the feature index at each later
// snapshot until the track ends: the history of one void.
func lineage(t *Tree, start int) []int {
	path := []int{start}
	cur := start
	for i := 0; i < len(t.Links); i++ {
		best, bestOv := -1, 0
		for _, l := range t.Links[i] {
			if l.From == cur && l.Overlap > bestOv {
				best, bestOv = l.To, l.Overlap
			}
		}
		if best < 0 {
			break
		}
		path = append(path, best)
		cur = best
	}
	return path
}
