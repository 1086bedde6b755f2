package repairprog

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/constraint"
	"repro/internal/ground"
	"repro/internal/relational"
	"repro/internal/stable"
	"repro/internal/value"
)

func deltasEqual(a, b relational.Delta) bool {
	if len(a.Removed) != len(b.Removed) || len(a.Added) != len(b.Added) {
		return false
	}
	for i := range a.Removed {
		if a.Removed[i].Compare(b.Removed[i]) != 0 {
			return false
		}
	}
	for i := range a.Added {
		if a.Added[i].Compare(b.Added[i]) != 0 {
			return false
		}
	}
	return true
}

func factsEqual(a, b []relational.Fact) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}

// TestInterpretDeltaMatchesInterpret is the tentpole's byte-identity pin:
// on randomized instances, every stable model's overlay repair must carry
// exactly the materialized Interpret instance — same Facts(), and a Delta()
// that matches both the emitted delta and Diff against the base — under
// both pruning modes.
func TestInterpretDeltaMatchesInterpret(t *testing.T) {
	fd := constraint.FD("R", 2, []int{0}, []int{1})
	fk := constraint.ForeignKey("S", 2, []int{1}, "R", 2, []int{0})
	nnc := &constraint.NNC{Name: "rkey", Pred: "R", Arity: 2, Pos: 0}
	set := constraint.MustSet(append(fd, fk), []*constraint.NNC{nnc})
	vals := []value.V{s("a"), s("b"), n()}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		d := relational.NewInstance()
		for k := 0; k < 1+rng.Intn(3); k++ {
			d.Insert(fact("R", vals[rng.Intn(3)], vals[rng.Intn(3)]))
		}
		for k := 0; k < rng.Intn(3); k++ {
			d.Insert(fact("S", vals[rng.Intn(3)], vals[rng.Intn(3)]))
		}
		// Unconstrained bulk: pruned to passthrough when pruning is on,
		// annotated (rules 5–7 only) when off — both must ride along.
		for k := 0; k < rng.Intn(4); k++ {
			d.Insert(fact("T", value.Int(int64(k))))
		}
		for _, prune := range []bool{false, true} {
			tr, err := BuildWith(d, set, BuildOptions{Variant: VariantCorrected, PruneUnconstrained: prune})
			if err != nil {
				t.Fatal(err)
			}
			gp, err := ground.Ground(tr.Program)
			if err != nil {
				t.Fatal(err)
			}
			reader := tr.NewModelReader(gp)
			if err := stable.Enumerate(gp, stable.Options{}, func(m stable.Model) bool {
				want := tr.Interpret(gp, m)
				inst, delta := reader.Repair(m)
				if !factsEqual(inst.Facts(), want.Facts()) {
					t.Fatalf("trial %d prune=%v: overlay facts %v != materialized %v (model %v)",
						trial, prune, inst.Facts(), want.Facts(), m)
				}
				if diff := relational.Diff(d, want); !deltasEqual(delta, diff) {
					t.Fatalf("trial %d prune=%v: emitted delta %v != Diff %v", trial, prune, delta, diff)
				}
				if own := inst.Delta(); !deltasEqual(own, delta) {
					t.Fatalf("trial %d prune=%v: overlay Delta() %v != emitted delta %v", trial, prune, own, delta)
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestInterpretDeltaCutoff pins the MaxCandidates cutoff point: the overlay
// stream must deliver the same prefix and the same error as the materialized
// interpretation of the same model stream, for budgets straddling the
// cutoff.
func TestInterpretDeltaCutoff(t *testing.T) {
	d, set := example19()
	tr := mustBuild(t, d, set, VariantCorrected)
	gp, err := tr.BaseGrounding()
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		keys []string
		err  error
	}
	for _, budget := range []int{1, 2, 3, 5, 8, 100} {
		opts := stable.Options{MaxCandidates: budget}
		var overlay, materialized outcome
		overlay.err = tr.StreamRepairs(opts, func(inst *relational.Instance, _ relational.Delta, _ stable.Model) bool {
			overlay.keys = append(overlay.keys, inst.Key())
			return true
		})
		materialized.err = stable.Enumerate(gp, opts, func(m stable.Model) bool {
			materialized.keys = append(materialized.keys, tr.Interpret(gp, m).Key())
			return true
		})
		if overlay.err != materialized.err {
			t.Fatalf("budget=%d: overlay err %v != materialized %v", budget, overlay.err, materialized.err)
		}
		if !reflect.DeepEqual(overlay.keys, materialized.keys) {
			t.Fatalf("budget=%d: overlay stream %d repairs != materialized %d (or diverges)",
				budget, len(overlay.keys), len(materialized.keys))
		}
	}
}
