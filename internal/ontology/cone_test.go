package ontology

import (
	"fmt"
	"testing"

	"oassis/internal/vocab"
)

// TestSemConeStats pins the cone memo's contract and accounting: a cone is
// the (P, S, O)-ordered run of facts whose subject (object) specializes
// the term, built once and then served shared; a cone too wide for the
// one-eighth rule is refused without being built or counted; ConeStats
// moves only on a build.
func TestSemConeStats(t *testing.T) {
	v := vocab.New()
	root := v.MustElement("root")
	var mids, leaves []vocab.TermID
	for m := 0; m < 4; m++ {
		mid := v.MustElement(fmt.Sprintf("m%d", m))
		if err := v.OrderElements(root, mid); err != nil {
			t.Fatal(err)
		}
		mids = append(mids, mid)
		for l := 0; l < 4; l++ {
			leaf := v.MustElement(fmt.Sprintf("m%d_%d", m, l))
			if err := v.OrderElements(mid, leaf); err != nil {
				t.Fatal(err)
			}
			leaves = append(leaves, leaf)
		}
	}
	p := v.MustRelation("p")
	if err := v.Freeze(); err != nil {
		t.Fatal(err)
	}
	s := NewStore(v)
	for i, a := range leaves {
		for j, b := range leaves {
			if (i+j)%3 == 0 {
				s.MustAdd(Fact{S: a, P: p, O: b})
			}
		}
	}
	s.Freeze()
	all := s.FactsWithPredicate(p)

	if _, ok := s.SemCone(p, root, false); ok {
		t.Fatal("root's cone spans every term; want the scan verdict")
	}
	if st := s.ConeStats(); st != (ConeCacheStats{}) {
		t.Fatalf("scan verdict moved ConeStats: %+v", st)
	}
	for _, object := range []bool{false, true} {
		for _, term := range append(append([]vocab.TermID{}, mids...), leaves...) {
			before := s.ConeStats()
			cone, ok := s.SemCone(p, term, object)
			if !ok {
				t.Fatalf("cone of %d (object=%v) refused", term, object)
			}
			var want []Fact
			for _, g := range all {
				x := g.S
				if object {
					x = g.O
				}
				if v.LeqE(term, x) {
					want = append(want, g)
				}
			}
			if fmt.Sprint(cone) != fmt.Sprint(want) {
				t.Fatalf("cone of %d (object=%v) = %v, want %v", term, object, cone, want)
			}
			after := s.ConeStats()
			if after.Cold != before.Cold+1 || after.Facts != before.Facts+int64(len(cone)) {
				t.Fatalf("cold build accounted %+v -> %+v for %d facts", before, after, len(cone))
			}
			again, _ := s.SemCone(p, term, object)
			if s.ConeStats() != after {
				t.Fatalf("memo hit moved ConeStats %+v -> %+v", after, s.ConeStats())
			}
			if len(again) > 0 && &again[0] != &cone[0] {
				t.Fatal("memo hit rebuilt the cone instead of sharing it")
			}
		}
	}
}
