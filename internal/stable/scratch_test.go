package stable

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ground"
)

func sortedModelSet(t *testing.T, p *ground.Program, opts Options) []string {
	t.Helper()
	models, err := Models(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = fmt.Sprint([]int(m))
	}
	sort.Strings(out)
	return out
}

// TestScratchSolveMatchesPersistent is the solver-reuse soundness pin: on
// randomized ground programs the scratch ablation (fresh solver per solve
// call) must produce exactly the same set of stable models as the default
// persistent solver. The per-component discovery order may differ between
// the modes, so the comparison is on sorted model sets.
func TestScratchSolveMatchesPersistent(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 60; trial++ {
		p := randomGroundProgramClean(rng, 4+rng.Intn(4))
		persistent := sortedModelSet(t, p, Options{})
		scratch := sortedModelSet(t, p, Options{ScratchSolve: true})
		if len(persistent) != len(scratch) {
			t.Fatalf("trial %d: %d persistent models, %d scratch", trial, len(persistent), len(scratch))
		}
		for i := range persistent {
			if persistent[i] != scratch[i] {
				t.Fatalf("trial %d: model sets diverge at %d: %s vs %s", trial, i, persistent[i], scratch[i])
			}
		}
	}
}

// TestScratchSolveBudgetDeterminism checks that the candidate budget cutoff
// in scratch mode is, like the persistent mode's, a pure function of the
// demanded stream. The fixture has five stable models and trips
// MaxCandidates after one, two and four of them; each budget must yield the
// golden prefix (count and FNV-64a hash) and error, and a repeated run must
// reproduce it. (The two modes may legitimately cut off at different points
// — candidate counts differ when discovery orders do — so scratch mode is
// only compared with itself.)
func TestScratchSolveBudgetDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	p := randomGroundProgramClean(rng, 7)
	type outcome struct {
		models int
		hash   uint64
		err    error
	}
	collect := func(budget int) outcome {
		h := fnv.New64a()
		var out outcome
		out.err = Enumerate(p, Options{ScratchSolve: true, MaxCandidates: budget},
			func(m Model) bool {
				out.models++
				for _, a := range m {
					fmt.Fprintf(h, "%d,", a)
				}
				fmt.Fprint(h, ";")
				return true
			})
		out.hash = h.Sum64()
		return out
	}
	golden := []struct {
		budget int
		want   outcome
	}{
		{1, outcome{1, 0x23221e1804cdba5d, ErrCandidateLimit}},
		{2, outcome{2, 0x08cc8f5c2cb6b47a, ErrCandidateLimit}},
		{4, outcome{4, 0x6b3580c5bcc5dae5, ErrCandidateLimit}},
		{8, outcome{5, 0x2163d2552c1439b1, nil}},
		{1 << 16, outcome{5, 0x2163d2552c1439b1, nil}},
	}
	for _, g := range golden {
		first, again := collect(g.budget), collect(g.budget)
		if first != g.want {
			t.Errorf("budget=%d: %d models (hash %#x), err %v; want %d (%#x), err %v",
				g.budget, first.models, first.hash, first.err, g.want.models, g.want.hash, g.want.err)
		}
		if again != first {
			t.Errorf("budget=%d: repeated run differs: %d models (hash %#x), err %v",
				g.budget, again.models, again.hash, again.err)
		}
	}
}
