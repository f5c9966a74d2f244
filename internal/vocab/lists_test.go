package vocab

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomDAG builds a vocabulary whose elements and relations each form a
// random multi-parent DAG: every term after the first gets 1–3 parents among
// the earlier ones (fewer when duplicates collapse). IDs are shuffled
// against the declaration order so topological order differs from ID order.
func randomDAG(t *testing.T, rng *rand.Rand, nElem, nRel int) *Vocabulary {
	t.Helper()
	v := New()
	build := func(n int, add func(string) TermID, order func(a, b TermID) error, prefix string) {
		ids := make([]TermID, n)
		for i, p := range rng.Perm(n) {
			ids[p] = add(fmt.Sprintf("%s%d", prefix, i))
		}
		for i := 1; i < n; i++ {
			for k := 0; k < 1+rng.Intn(3); k++ {
				if err := order(ids[rng.Intn(i)], ids[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	build(nElem, v.MustElement, v.OrderElements, "e")
	build(nRel, v.MustRelation, v.OrderRelations, "r")
	if err := v.Freeze(); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestOrderListsMatchLeq checks the ancestor and descendant lists of both
// namespaces against brute force over Leq: up[id] holds
// exactly the a with a ≤ id, down[id] exactly the d with id ≤ d; both follow
// the topological order; id sits last in up[id] and first in down[id]. The
// public accessors must hand out those lists (ElementAncestors without its
// last element), capacity-capped so that appending to a result cannot
// change what the next call returns.
func TestOrderListsMatchLeq(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v := randomDAG(t, rng, 1+rng.Intn(60), 1+rng.Intn(20))
		for _, k := range []Kind{Element, Relation} {
			n, topo := v.elems, v.ElementsTopo()
			if k == Relation {
				n, topo = v.rels, v.RelationsTopo()
			}
			pos := make(map[TermID]int, len(topo))
			for i, id := range topo {
				pos[id] = i
			}
			for _, id := range topo {
				var wantUp, wantDown []TermID
				for _, x := range topo {
					if v.Leq(k, x, id) {
						wantUp = append(wantUp, x)
					}
					if v.Leq(k, id, x) {
						wantDown = append(wantDown, x)
					}
				}
				up, down := n.upOf(id), n.downOf(id)
				if !slices.Equal(up, wantUp) {
					t.Fatalf("seed %d %v %d: up = %v, want %v", seed, k, id, up, wantUp)
				}
				if !slices.Equal(down, wantDown) {
					t.Fatalf("seed %d %v %d: down = %v, want %v", seed, k, id, down, wantDown)
				}
				if up[len(up)-1] != id || down[0] != id {
					t.Fatalf("seed %d %v %d: self misplaced: up %v, down %v", seed, k, id, up, down)
				}
				for _, l := range [][]TermID{up, down} {
					for i := 1; i < len(l); i++ {
						if pos[l[i-1]] >= pos[l[i]] {
							t.Fatalf("seed %d %v %d: list %v not in topological order", seed, k, id, l)
						}
						if v.Leq(k, l[i], l[i-1]) {
							t.Fatalf("seed %d %v %d: list %v puts %d after its specialization %d",
								seed, k, id, l, l[i-1], l[i])
						}
					}
				}
				if k == Relation {
					continue
				}
				if got := v.ElementDescendants(id); !slices.Equal(got, wantDown) {
					t.Fatalf("seed %d: ElementDescendants(%d) = %v, want %v", seed, id, got, wantDown)
				}
				if got := v.ElementAncestorsAndSelf(id); !slices.Equal(got, wantUp) {
					t.Fatalf("seed %d: ElementAncestorsAndSelf(%d) = %v, want %v", seed, id, got, wantUp)
				}
				anc := v.ElementAncestors(id)
				if !slices.Equal(anc, wantUp[:len(wantUp)-1]) {
					t.Fatalf("seed %d: ElementAncestors(%d) = %v, want %v", seed, id, anc, wantUp[:len(wantUp)-1])
				}
				_ = append(anc, -7)
				_ = append(v.ElementAncestorsAndSelf(id), -7)
				_ = append(v.ElementDescendants(id), -7)
				if !slices.Equal(v.ElementAncestors(id), wantUp[:len(wantUp)-1]) ||
					!slices.Equal(v.ElementAncestorsAndSelf(id), wantUp) ||
					!slices.Equal(v.ElementDescendants(id), wantDown) {
					t.Fatalf("seed %d: appending to a returned list changed a later call for %d", seed, id)
				}
			}
		}
		// Appending to every list must leave every other term's list intact
		// too: neighbours share one flat backing array.
		for _, id := range v.ElementsTopo() {
			_ = append(v.ElementAncestors(id), -9)
			_ = append(v.ElementAncestorsAndSelf(id), -9)
			_ = append(v.ElementDescendants(id), -9)
		}
		for _, id := range v.ElementsTopo() {
			for _, l := range [][]TermID{v.ElementAncestorsAndSelf(id), v.ElementDescendants(id)} {
				if slices.Contains(l, -9) {
					t.Fatalf("seed %d: list of %d clobbered by a neighbour's append: %v", seed, id, l)
				}
			}
		}
	}
}
