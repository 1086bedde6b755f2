package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	nullcqa "repro"
	"repro/internal/relational"
	"repro/internal/wire"
)

// oneshotInput is one program-oneshot op: instance, constraints and query
// as parser-syntax text, parsed anew by every op.
type oneshotInput struct {
	shape               string // "fd" or "ric"
	inst, ics, queryTxt string
}

// oneshotSize sizes the two input shapes (see README.md, "Sizes").
type oneshotSize struct {
	cycle int // inputs per cycle, alternating shapes
	// fd: clean bulk rows plus conflicted keys, many independent
	// components.
	fdBulk, fdConflicts int
	// ric: entangled FD+RIC+NNC components.
	ricBulk, ricFD, ricDangling, ricEntangled int
}

// oneshotDefault sizes the two shapes so that both cost about the same
// (≈28 ms on the reference host): op latencies then form one mode, and the
// p50 does not sit on a gap between two shapes.
var oneshotDefault = oneshotSize{cycle: 128, fdBulk: 300, fdConflicts: 4, ricBulk: 60, ricFD: 4, ricDangling: 3, ricEntangled: 4}

const oneshotFDICs = "r(X, Y), r(X, Z) -> Y = Z.\n"

const oneshotRICICs = `r(X, Y), r(X, Z) -> Y = Z.
s(U, V) -> r(V, W).
r(X, Y), isnull(X) -> false.
`

// genOneshot builds the seeded input cycle. Both shapes come from the same
// seeded stream; every drawn input is kept.
func genOneshot(seed int64, size oneshotSize) []oneshotInput {
	rng := rand.New(rand.NewSource(seed ^ 0x0e5))
	var out []oneshotInput
	for i := 0; i < size.cycle; i++ {
		if i%2 == 0 {
			out = append(out, genOneshotFD(rng, size))
		} else {
			out = append(out, genOneshotRIC(rng, size))
		}
	}
	return out
}

// genOneshotFD: one key-FD relation of clean rows plus conflicted keys;
// every key group is its own component of the repair program.
func genOneshotFD(rng *rand.Rand, size oneshotSize) oneshotInput {
	var b strings.Builder
	for i := 0; i < size.fdBulk; i++ {
		fmt.Fprintf(&b, "r(k%d, v%d).\n", i, rng.Intn(5))
	}
	for i := 0; i < size.fdConflicts; i++ {
		k := rng.Intn(size.fdBulk)
		fmt.Fprintf(&b, "r(k%d, w%d).\n", k, i)
	}
	return oneshotInput{
		shape:    "fd",
		inst:     b.String(),
		ics:      oneshotFDICs,
		queryTxt: fmt.Sprintf("q(K) :- r(K, v%d).", rng.Intn(5)),
	}
}

// genOneshotRIC: r with a key FD and a NOT NULL key, s referencing r. Key
// conflicts, dangling references (repaired by deleting the s row or
// inserting an r row with a null value) and s rows that reference
// conflicted keys entangle the FD and RIC repairs.
func genOneshotRIC(rng *rand.Rand, size oneshotSize) oneshotInput {
	var b strings.Builder
	for i := 0; i < size.ricBulk; i++ {
		fmt.Fprintf(&b, "r(k%d, v%d).\n", i, rng.Intn(5))
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "s(u%d, k%d).\n", i, i)
		}
	}
	for i := 0; i < size.ricFD; i++ {
		fmt.Fprintf(&b, "r(c%d, a%d).\nr(c%d, b%d).\n", i, rng.Intn(3), i, 3+rng.Intn(3))
	}
	for i := 0; i < size.ricDangling; i++ {
		fmt.Fprintf(&b, "s(d%d, m%d).\n", i, i)
	}
	for i := 0; i < size.ricEntangled; i++ {
		fmt.Fprintf(&b, "s(e%d, c%d).\n", i, rng.Intn(size.ricFD))
	}
	return oneshotInput{
		shape:    "ric",
		inst:     b.String(),
		ics:      oneshotRICICs,
		queryTxt: "q(U, Y) :- s(U, V), r(V, Y).",
	}
}

// programOpts are the one-shot options: the paper's program engine with
// the registry defaults, exactly what cqa -engine program uses.
var programOpts = func() nullcqa.CQAOptions {
	o, err := nullcqa.EngineOptionsByName("program", 0)
	if err != nil {
		panic(err)
	}
	return o
}()

// oneshotAnswer is what one op returned.
type oneshotAnswer struct {
	tuples     []relational.Tuple
	numRepairs int
	err        error
}

// answerOneshot parses the input and answers it through the nullcqa
// facade with opts, as cqa does: programOpts for the measured ops,
// searchOpts for the independent expected answers.
func answerOneshot(in oneshotInput, opts nullcqa.CQAOptions) oneshotAnswer {
	d, err := nullcqa.ParseInstance(in.inst)
	if err != nil {
		return oneshotAnswer{err: err}
	}
	set, err := nullcqa.ParseConstraints(in.ics)
	if err != nil {
		return oneshotAnswer{err: err}
	}
	q, err := nullcqa.ParseQuery(in.queryTxt)
	if err != nil {
		return oneshotAnswer{err: err}
	}
	a, err := nullcqa.ConsistentAnswersCtx(context.Background(), d, set, q, opts)
	return oneshotAnswer{tuples: a.Tuples, numRepairs: a.NumRepairs, err: err}
}

func (a oneshotAnswer) matches(b oneshotAnswer) error {
	switch {
	case a.err != nil:
		return a.err
	case b.err != nil:
		return fmt.Errorf("independent answer: %w", b.err)
	case a.numRepairs != b.numRepairs:
		return fmt.Errorf("%d repairs, want %d", a.numRepairs, b.numRepairs)
	case !sameTuples(wire.FromTuples(a.tuples), b.tuples):
		return fmt.Errorf("answer %d tuples differs from the expected %d", len(a.tuples), len(b.tuples))
	}
	return nil
}

// oneshotRun is the measured outcome of program-oneshot.
type oneshotRun struct {
	setup   time.Duration
	segs    []segment       // one per timed pass
	answers []oneshotAnswer // timed ops, input i%cycle
	refMS   []float64
	rssMB   float64
	gc0     gcSnap
	gc1     gcSnap
}

// runOneshotLoop runs the cold first pass (set-up), then passes timed
// passes over the cycle with the host kernel at each pass barrier.
func runOneshotLoop(cycle []oneshotInput, passes int) *oneshotRun {
	run := &oneshotRun{}
	t0 := time.Now()
	for _, in := range cycle {
		_ = answerOneshot(in, programOpts)
	}
	run.setup = time.Since(t0)
	run.refMS = append(run.refMS, refBarrier())
	run.gc0 = readGC()
	for p := 0; p < passes; p++ {
		cpu0 := selfCPU()
		t0 := time.Now()
		var seg segment
		for _, in := range cycle {
			s := time.Now()
			a := answerOneshot(in, programOpts)
			seg.lats = append(seg.lats, ms(time.Since(s)))
			run.answers = append(run.answers, a)
		}
		seg.wall = time.Since(t0)
		seg.cpu = selfCPU() - cpu0
		run.segs = append(run.segs, seg)
		run.refMS = append(run.refMS, refBarrier())
	}
	run.gc1 = readGC()
	if rss, err := peakRSSMB("self"); err == nil {
		run.rssMB = rss
	}
	return run
}
