package repairprog

import (
	"testing"

	"repro/internal/constraint"
	"repro/internal/ground"
	"repro/internal/parser"
	"repro/internal/relational"
)

// example19Parsed is the Example 19 scenario in parser-friendly lower-case
// relation names, for tests that drive the query side through the parser.
func example19Parsed() (*relational.Instance, *constraint.Set) {
	return parser.MustInstance(`
			r(a, b).
			r(a, c).
			s(e, f).
			s(null, a).
		`), parser.MustConstraints(`
			r(X, Y), r(X, Z) -> Y = Z.
			s(U, V) -> r(V, W).
			r(X, Y), isnull(X) -> false.
		`)
}

// queryZoo covers the query-rule shapes GroundWithQuery must handle: open
// and boolean queries, joins, negation, builtins, and disjunction (unions).
var queryZoo = []string{
	`q(X) :- r(X, Y).`,
	`q(X, Y) :- r(X, Y).`,
	`q(U) :- s(U, V), r(V, W).`,
	`q(X) :- r(X, Y), not s(Y, X).`,
	`q(X, Y) :- r(X, Y), X != Y.`,
	`q(X) :- r(X, Y). q(X) :- s(X, V).`,
	`q :- r(a, b).`,
	`q :- s(U, V), not r(V, V).`,
}

// TestGroundWithQueryMatchesMonolithic pins the grounding-reuse contract at
// the translation level: extending the cached base grounding with the query
// rules renders byte-identically to re-grounding WithQuery(q) from scratch,
// for every query shape.
func TestGroundWithQueryMatchesMonolithic(t *testing.T) {
	d, set := example19Parsed()
	tr := mustBuild(t, d, set, VariantCorrected)
	for _, qsrc := range queryZoo {
		q := parser.MustQuery(qsrc)
		got, err := tr.GroundWithQuery(q)
		if err != nil {
			t.Fatalf("query %q: %v", qsrc, err)
		}
		prog, err := tr.WithQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		mono, err := ground.GroundWith(prog, tr.GroundOptions)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != mono.String() {
			t.Errorf("query %q: extension diverges from monolithic:\n--- monolithic\n%s\n--- extension\n%s",
				qsrc, mono, got)
		}
	}
}

// TestBaseGroundingCached checks that the base grounding is computed once
// per translation and shared by every query extension.
func TestBaseGroundingCached(t *testing.T) {
	d, set := example19Parsed()
	tr := mustBuild(t, d, set, VariantCorrected)
	g1, err := tr.BaseGrounding()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := tr.BaseGrounding()
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("BaseGrounding re-grounded the base")
	}
	// Query extensions must share the base atom table: ids and names of the
	// base atoms survive unchanged.
	gp, err := tr.GroundWithQuery(parser.MustQuery(`q(X) :- r(X, Y).`))
	if err != nil {
		t.Fatal(err)
	}
	if len(gp.Names) < len(g1.Names) {
		t.Fatalf("extension lost base atoms: %d < %d", len(gp.Names), len(g1.Names))
	}
	for id := range g1.Names {
		if gp.Names[id] != g1.Names[id] {
			t.Fatalf("atom id %d renamed by extension: %q vs %q", id, gp.Names[id], g1.Names[id])
		}
	}
}

// TestGroundWithQueryFallback forces the extension conflict path: a database
// relation named like the answer predicate makes the base grounding
// unshareable, and GroundWithQuery must silently fall back to a monolithic
// grounding with the same rendered result.
func TestGroundWithQueryFallback(t *testing.T) {
	d := parser.MustInstance(`
		r(a, b).
		r(a, c).
		q_ans(a).
	`)
	set := parser.MustConstraints(`r(X, Y), r(X, Z) -> Y = Z.`)
	tr := mustBuild(t, d, set, VariantCorrected)
	q := parser.MustQuery(`q(X) :- r(X, Y), q_ans(X).`)
	got, err := tr.GroundWithQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := tr.WithQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := ground.Ground(prog)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != mono.String() {
		t.Errorf("fallback diverges from monolithic:\n--- monolithic\n%s\n--- fallback\n%s", mono, got)
	}
}
