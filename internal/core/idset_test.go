package core

import (
	"testing"

	"oassis/internal/assign"
)

// TestIDSetBitset checks the NodeID bitset across word boundaries and
// growth: add reports first insertion only, remove clears one bit, and
// ids beyond the allocated words read as absent.
func TestIDSetBitset(t *testing.T) {
	var s idSet
	s.grow(10)
	ids := []assign.NodeID{0, 1, 63, 64, 65, 127, 128, 1000}
	for _, id := range ids {
		if s.has(id) {
			t.Fatalf("fresh set has %d", id)
		}
		if !s.add(id) {
			t.Fatalf("add(%d) on a fresh id reported present", id)
		}
		if s.add(id) {
			t.Fatalf("second add(%d) reported absent", id)
		}
	}
	s.remove(64)
	s.remove(5000) // beyond the set: no-op
	for _, id := range ids {
		if got, want := s.has(id), id != 64; got != want {
			t.Fatalf("has(%d) = %v, want %v", id, got, want)
		}
	}
	for _, id := range []assign.NodeID{2, 62, 66, 999, 1001, 5000} {
		if s.has(id) {
			t.Fatalf("has(%d) for an id never added", id)
		}
	}
}

// TestSetAnswerTracksLatestSupport pins the answered/yes bitsets to the
// answer map: a later answer replaces an earlier one, so yes follows the
// latest support in both directions.
func TestSetAnswerTracksLatestSupport(t *testing.T) {
	u := &userState{answers: map[assign.NodeID]float64{}}
	const theta = 0.5
	for _, step := range []struct {
		support float64
		yes     bool
	}{{0.7, true}, {0.2, false}, {0.5, true}, {0, false}} {
		u.setAnswer(70, step.support, theta)
		if !u.answered.has(70) || u.yes.has(70) != step.yes || u.answers[70] != step.support {
			t.Fatalf("after support %v: answered=%v yes=%v map=%v", step.support,
				u.answered.has(70), u.yes.has(70), u.answers[70])
		}
	}
	if u.answered.has(69) || u.yes.has(69) {
		t.Fatal("neighbouring id marked")
	}
}
