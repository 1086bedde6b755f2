package repairprog

import (
	"testing"

	"repro/internal/relational"
	"repro/internal/stable"
)

// TestStreamRepairsMatchesMaterialized checks the streaming entry point
// against its materialized wrapper: the streamed (instance, model) pairs
// dedup to exactly the StableRepairs instance set.
func TestStreamRepairsMatchesMaterialized(t *testing.T) {
	d, set := example19()
	tr := mustBuild(t, d, set, VariantCorrected)
	want := stableInstances(t, tr)

	seen := map[string]bool{}
	if err := tr.StreamRepairs(stable.Options{}, func(inst *relational.Instance, delta relational.Delta, m stable.Model) bool {
		if len(m) == 0 {
			t.Fatal("empty stable model streamed")
		}
		if got := relational.Diff(d, inst); !deltasEqual(got, delta) {
			t.Fatalf("emitted delta %v does not match Diff %v", delta, got)
		}
		seen[inst.Key()] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(want) {
		t.Fatalf("%d distinct streamed repairs, want %d", len(seen), len(want))
	}
	for _, w := range want {
		if !seen[w.Key()] {
			t.Errorf("repair %v never streamed", w)
		}
	}
}

// TestStreamRepairsCancel checks that yield returning false stops the
// stream without an error — the hook core's boolean short-circuit rides on.
func TestStreamRepairsCancel(t *testing.T) {
	d, set := example19()
	tr := mustBuild(t, d, set, VariantCorrected)
	calls := 0
	if err := tr.StreamRepairs(stable.Options{}, func(_ *relational.Instance, _ relational.Delta, _ stable.Model) bool {
		calls++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("yield ran %d times after immediate cancellation", calls)
	}
}
