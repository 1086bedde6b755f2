package core

import (
	"fmt"
	"testing"

	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/value"
)

// violatingCourses builds the Example 15 shape with extra dangling courses,
// so the repair space is 2^(extra+1) and a short-circuit is observable.
func violatingCourses(extra int) (*relational.Instance, string) {
	d := parser.MustInstance(`
		course(21, c15).
		course(34, c18).
		student(21, "Ann").
		student(45, "Paul").
	`)
	for i := 0; i < extra; i++ {
		d.Insert(relational.F("course", value.Int(int64(100+i)), value.Str(fmt.Sprintf("cx%d", i))))
	}
	return d, `course(Id, Code) -> student(Id, Name).`
}

// TestBooleanShortCircuit is the regression test for the tentpole's early
// termination: a boolean certain answer that is refuted by one repair must
// stop the enumeration at the first confirmed-minimal counterexample,
// witnessed by a states-explored counter strictly below the full-enumeration
// count.
func TestBooleanShortCircuit(t *testing.T) {
	d, setSrc := violatingCourses(3)
	set := parser.MustConstraints(setSrc)
	full, err := repair.Repairs(d, set, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}

	no := parser.MustQuery(`q :- course(34, c18).`)
	ans, err := ConsistentAnswers(d, set, no, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Boolean {
		t.Fatal("course(34, c18) must not be certain (one repair deletes it)")
	}
	if !ans.ShortCircuited {
		t.Error("refuted boolean answer did not short-circuit")
	}
	if ans.StatesExplored >= full.StatesExplored {
		t.Errorf("short-circuit explored %d states, full enumeration %d — no early termination",
			ans.StatesExplored, full.StatesExplored)
	}

	// A certain yes still requires the full enumeration.
	yes := parser.MustQuery(`q :- course(21, c15).`)
	ans, err = ConsistentAnswers(d, set, yes, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Boolean || ans.ShortCircuited {
		t.Errorf("certain yes answered %+v, want Boolean=true without short-circuit", ans)
	}
	if ans.StatesExplored != full.StatesExplored || ans.NumRepairs != len(full.Repairs) {
		t.Errorf("certain yes explored %d states / %d repairs, want %d / %d",
			ans.StatesExplored, ans.NumRepairs, full.StatesExplored, len(full.Repairs))
	}
}

// TestShortCircuitAgreesWithProgramEngine guards the soundness of the
// certificate: whenever the search engine short-circuits a boolean query,
// the program engine (full stable-model pipeline) must agree the certain
// answer is no.
func TestShortCircuitAgreesWithProgramEngine(t *testing.T) {
	d, setSrc := violatingCourses(2)
	set := parser.MustConstraints(setSrc)
	for _, qsrc := range []string{
		`q :- course(34, c18).`,
		`q :- course(100, cx0).`,
		`q :- course(101, cx1).`,
		`q :- student(34, null).`,
	} {
		q := parser.MustQuery(qsrc)
		search, err := ConsistentAnswers(d, set, q, NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		progOpts := NewOptions()
		progOpts.Engine = EngineProgram
		prog, err := ConsistentAnswers(d, set, q, progOpts)
		if err != nil {
			t.Fatal(err)
		}
		if search.Boolean != prog.Boolean {
			t.Errorf("%q: search says %v (short-circuit=%v), program says %v",
				qsrc, search.Boolean, search.ShortCircuited, prog.Boolean)
		}
	}
}
