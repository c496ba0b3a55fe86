package registry

import (
	"fmt"
	"math/rand"
	"testing"

	"sariadne/internal/match"
)

// referenceClassify is the classifier the directory used before the
// search for S was bounded, kept as the definition classifyLocked must
// agree with: it probes every leaf of the graph, keeps no record of failed
// probes (a non-matching vertex is probed again from every matching
// neighbour), and keeps its regions in maps, sharing no code or scratch
// with classifyLocked.
func (d *Directory) referenceClassify(g *graph, c *match.Encoded) placement {
	pl := placement{join: -1}
	nodes := g.view().nodes
	m := make(map[int32]struct{})
	var frontier []int32
	for _, r := range g.roots {
		if d.matches(nodes[r].rep, c) {
			m[r] = struct{}{}
			frontier = append(frontier, r)
		}
	}
	for len(frontier) > 0 {
		var next []int32
		for _, v := range frontier {
			for _, s := range nodes[v].succs {
				if _, seen := m[s]; seen {
					continue
				}
				if d.matches(nodes[s].rep, c) {
					m[s] = struct{}{}
					next = append(next, s)
				}
			}
		}
		if len(next) > 0 {
			pl.depth++
		}
		frontier = next
	}
	sset := make(map[int32]struct{})
	for l, n := range nodes {
		if len(n.succs) == 0 && d.matches(c, n.rep) {
			sset[int32(l)] = struct{}{}
			frontier = append(frontier, int32(l))
		}
	}
	for len(frontier) > 0 {
		var next []int32
		for _, v := range frontier {
			for _, p := range nodes[v].preds {
				if _, seen := sset[p]; seen {
					continue
				}
				if d.matches(c, nodes[p].rep) {
					sset[p] = struct{}{}
					next = append(next, p)
				}
			}
		}
		frontier = next
	}
	for v := range m {
		if isIn(sset, v) {
			pl.join = v
			return pl
		}
	}
	for v := range m {
		minimal := true
		for _, s := range nodes[v].succs {
			if isIn(m, s) {
				minimal = false
				break
			}
		}
		if minimal {
			pl.parents = append(pl.parents, v)
		}
	}
	for v := range sset {
		maximal := true
		for _, p := range nodes[v].preds {
			if isIn(sset, p) {
				maximal = false
				break
			}
		}
		if maximal {
			pl.children = append(pl.children, v)
		}
	}
	return pl
}

func isIn(set map[int32]struct{}, v int32) bool {
	_, ok := set[v]
	return ok
}

// TestBoundedClassifierEqualsReference replays one history on two
// directories, one classifying with classifyLocked and one with the
// unbounded reference, and requires the same graphs after every step for
// never more match operations. On the dense pool the bounded classifier
// must need fewer; how many fewer grows with the graph (at a hundred
// vertices a tenth to a fifth, at the live benchmark's six hundred a half:
// TestRegisterCostIndependentOfSize measures it at size).
func TestBoundedClassifierEqualsReference(t *testing.T) {
	pools := map[string]func(seed int64) advertPool{
		"figure1":   func(seed int64) advertPool { return fixturePool(t, rand.New(rand.NewSource(seed))) },
		"generated": func(seed int64) advertPool { return generatedPool(t, seed) },
		"dense":     func(seed int64) advertPool { return densePool(t, seed) },
	}
	for name, newPool := range pools {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				pool := newPool(seed)
				d, ref := pool.d, NewDirectory(pool.d.matcher)
				ref.classify = ref.referenceClassify
				rng := rand.New(rand.NewSource(seed))
				for step := 0; step < 400; step++ {
					i := rng.Intn(len(pool.variants))
					if rng.Intn(4) == 0 {
						name := pool.variants[i][0].Name
						if d.Deregister(name) != ref.Deregister(name) {
							t.Fatalf("step %d: the directories disagree on whether %s was registered", step, name)
						}
					} else {
						v := rng.Intn(len(pool.variants[i]))
						if err := d.Register(pool.variants[i][v]); err != nil {
							t.Fatal(err)
						}
						if err := ref.Register(pool.variants[i][v]); err != nil {
							t.Fatal(err)
						}
					}
					if got, want := d.Snapshot(), ref.Snapshot(); got != want {
						t.Fatalf("step %d: graphs differ from the reference classifier's\n got:\n%s\nwant:\n%s", step, got, want)
					}
					if got, want := d.MatchOps(), ref.MatchOps(); got > want {
						t.Fatalf("step %d: %d match operations so far, the reference needed %d", step, got, want)
					}
				}
				if err := d.checkInvariants(); err != nil {
					t.Fatal(err)
				}
				t.Logf("%d match operations, reference %d; largest graph %d vertices", d.MatchOps(), ref.MatchOps(), d.Stats().MaxGraphVertices)
				if name == "dense" && 10*d.MatchOps() > 9*ref.MatchOps() {
					t.Errorf("%d match operations, more than 90%% of the reference's %d", d.MatchOps(), ref.MatchOps())
				}
			})
		}
	}
}
