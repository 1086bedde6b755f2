package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	nullcqa "repro"
	"repro/internal/relational"
)

// Tiny sizes keep the self-tests fast; the shapes are the benchmark's own.
var (
	tinyFD      = fdSize{rows: 240, groupSize: 4, sRows: 40, watched: 4}
	tinyRIC     = ricSize{emps: 120, depts: 10, projs: 20, fdViol: 2, ricViol: 2}
	tinyOneshot = oneshotSize{cycle: 4, fdBulk: 30, fdConflicts: 2, ricBulk: 12, ricFD: 2, ricDangling: 1, ricEntangled: 2}
)

func tinyLive(name string, seed int64, timedOps int) *liveWorkload {
	if name == "fd-live" {
		cfg := fdLiveMix
		cfg.timedOps = timedOps
		return genFDLive(seed, tinyFD, cfg)
	}
	cfg := ricLiveMix
	cfg.timedOps = timedOps
	return genRICLive(seed, tinyRIC, cfg)
}

var liveNames = []string{"fd-live", "ric-live"}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	v, pct, n, ok := tail(xs)
	if !ok || v != 90 || pct != 90 || n != 100 {
		t.Fatalf("tail = %v, %v%%, n=%d, ok=%v; want 90, 90%%, 100, true", v, pct, n, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
	if _, _, _, ok := tail(xs[:tailBeyond]); ok {
		t.Fatalf("tail of %d samples reported a percentile with %d beyond it", tailBeyond, tailBeyond)
	}
	if v, _, _, ok := tail([]float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11}); !ok || v != 1 {
		t.Fatalf("tail of 11 samples = %v, %v; want the smallest", v, ok)
	}

	m := map[string]float64{}
	segmentReport(m, []segment{{lats: xs}, {lats: xs}, {lats: xs}})
	if m["tail_ms"] != 90 || m["tail_n"] != 100 || m["tail_all_n"] != 300 || m["tail_all_ms"] != 97 {
		t.Fatalf("segment report %v", m)
	}
}

// streamBytes is everything a live workload sends, in order.
func streamBytes(w *liveWorkload) []byte {
	var b bytes.Buffer
	for _, ls := range w.sessions {
		b.Write(ls.create)
		b.Write(ls.prepare)
	}
	for ci, ops := range w.clients {
		fmt.Fprintf(&b, "client %d, %d warm-up ops\n", ci, w.warm[ci])
		for _, op := range ops {
			fmt.Fprintf(&b, "%s %d %s\n", op.kind, op.sess, op.body)
		}
	}
	return b.Bytes()
}

func TestStreamsAreDeterministic(t *testing.T) {
	for _, name := range liveNames {
		a, b, c := tinyLive(name, 3, 60), tinyLive(name, 3, 60), tinyLive(name, 4, 60)
		if !bytes.Equal(streamBytes(a), streamBytes(b)) {
			t.Fatalf("%s: the same seed gave different streams", name)
		}
		if bytes.Equal(streamBytes(a), streamBytes(c)) {
			t.Fatalf("%s: different seeds gave the same stream", name)
		}
		ra, err := replayLive(a, false)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := replayLive(b, false)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range ra.bodies {
			for j := range ra.bodies[ci] {
				if !bytes.Equal(ra.bodies[ci][j], rb.bodies[ci][j]) {
					t.Fatalf("%s: the same stream answered op %d differently", name, j)
				}
			}
		}
	}
	a, b, c := genOneshot(3, tinyOneshot), genOneshot(3, tinyOneshot), genOneshot(4, tinyOneshot)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("program-oneshot: the same seed gave different input %d", i)
		}
		if err := answerOneshot(a[i], programOpts).matches(answerOneshot(b[i], programOpts)); err != nil {
			t.Fatalf("program-oneshot: the same input answered differently: %v", err)
		}
	}
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("program-oneshot: different seeds gave the same cycle")
	}
}

func TestStreamsAreStationary(t *testing.T) {
	for _, name := range liveNames {
		w := tinyLive(name, 5, 600)
		for si, ls := range w.sessions {
			size, conflicts, viols := w.sizes[si], w.conflicts[si], w.violations[si]
			if len(size) == 0 {
				t.Fatalf("%s: session %d has no applies", name, si)
			}
			for i := range size {
				if size[i] != ls.initial.Len() || conflicts[i] != conflicts[0] || viols[i] != viols[0] {
					t.Fatalf("%s: session %d apply %d: |D|=%d conflicts=%d violations=%d, want %d, %d and %d",
						name, si, i, size[i], conflicts[i], viols[i], ls.initial.Len(), conflicts[0], viols[0])
				}
			}
		}
		// Every delta is effective, every session re-anchors during the
		// warm-up, and the violations a scratch check finds are as many at
		// the end of the stream as at its start.
		facts := make([]*relational.Instance, len(w.sessions))
		drift := make([]*driftTracker, len(w.sessions))
		for si, ls := range w.sessions {
			facts[si], drift[si] = ls.initial.Clone(), newDrift()
		}
		for ci, ops := range w.clients {
			for j, op := range ops {
				if !op.kind.isApply() {
					continue
				}
				for _, f := range op.delta.Removed {
					if !facts[op.sess].Delete(f) {
						t.Fatalf("%s: op %d deletes absent %v", name, j, f)
					}
				}
				for _, f := range op.delta.Added {
					if !facts[op.sess].Insert(f) {
						t.Fatalf("%s: op %d inserts present %v", name, j, f)
					}
				}
				if j < w.warm[ci] {
					drift[op.sess].apply(op.delta)
				}
			}
		}
		for si, d := range drift {
			if d.reanchors == 0 {
				t.Fatalf("%s: session %d did not re-anchor during the warm-up", name, si)
			}
			ls := w.sessions[si]
			start := len(nullcqa.CheckViolations(ls.initial, ls.set).IC)
			end := len(nullcqa.CheckViolations(facts[si], ls.set).IC)
			if start == 0 || end != start {
				t.Fatalf("%s: session %d has %d violations at the start and %d at the end, want the same, not 0", name, si, start, end)
			}
		}
	}
}

// replayRun packages an in-process replay as if the daemon had answered.
func replayRun(w *liveWorkload, rep *replayOut) *liveRun {
	run := &liveRun{results: make([][]result, len(w.clients))}
	for _, b := range rep.preps {
		run.preps = append(run.preps, result{status: 201, body: b})
	}
	for ci := range w.clients {
		for _, b := range rep.bodies[ci] {
			run.results[ci] = append(run.results[ci], result{status: 200, body: b})
		}
	}
	return run
}

func TestTracedReplayAnswersLikeUntraced(t *testing.T) {
	for _, name := range liveNames {
		w := tinyLive(name, 7, 120)
		plain, err := replayLive(w, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := replayLive(w, true)
		if err != nil {
			t.Fatal(err)
		}
		if n := sameResponses(w, replayRun(w, plain), traced); n != 0 {
			t.Fatalf("%s: %d traced responses differ from the untraced replay", name, n)
		}
		for ci, tr := range traced.tracers {
			if len(tr.spans) == 0 {
				t.Fatalf("%s: the traced replay of client %d recorded no spans", name, ci)
			}
		}
		timed, warm, err := verifyLive(w, replayRun(w, plain))
		if err != nil || timed != 0 || warm != 0 {
			t.Fatalf("%s: replay failed verification: %d timed, %d warm-up failures, %v", name, timed, warm, err)
		}
	}
	tr := newTracer(time.Now())
	for _, in := range genOneshot(7, tinyOneshot) {
		got, _, err := replayOneshot(tr, in)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.matches(answerOneshot(in, programOpts)); err != nil {
			t.Fatalf("traced one-shot differs from the facade: %v", err)
		}
		if err := got.matches(answerOneshot(in, searchOpts)); err != nil {
			t.Fatalf("traced one-shot differs from the search engine: %v", err)
		}
	}
}

// TestVerifierCatchesWrongAnswers tampers with correct responses and
// expects the verifier to count each as a failed op.
func TestVerifierCatchesWrongAnswers(t *testing.T) {
	for _, name := range liveNames {
		w := tinyLive(name, 9, 200)
		rep, err := replayLive(w, false)
		if err != nil {
			t.Fatal(err)
		}
		tamper := map[opKind]func([]byte) []byte{
			kApply: func(b []byte) []byte {
				return bytes.Replace(b, []byte(`"consistent":false`), []byte(`"consistent":true`), 1)
			},
			kAnswers: func(b []byte) []byte {
				return bytes.Replace(b, []byte(`"tuples":[[`), []byte(`"tuples":[["bogus"],[`), 1)
			},
		}
		for kind, f := range tamper {
			run := replayRun(w, rep)
			done := false
			for j := w.warm[0]; j < len(w.clients[0]) && !done; j++ {
				body := run.results[0][j].body
				if w.clients[0][j].kind == kind && (kind != kAnswers || bytes.Contains(body, []byte(`"tuples":[[`))) {
					run.results[0][j].body = f(body)
					done = true
				}
			}
			if !done {
				t.Fatalf("%s: no %s op to tamper with", name, kind)
			}
			if timed, _, err := verifyLive(w, run); err != nil || timed != 1 {
				t.Fatalf("%s: a tampered %s response gave %d failures (%v), want 1", name, kind, timed, err)
			}
		}
	}
}
