package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	nullcqa "repro"
	"repro/internal/constraint"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/session"
	"repro/internal/wire"
)

// searchOpts are the options of the independent one-shots: the search
// engine, which shares no code path with the direct engine's
// classification or with a session's incremental maintenance.
var searchOpts = func() nullcqa.CQAOptions {
	o, err := nullcqa.EngineOptionsByName("search", 0)
	if err != nil {
		panic(err)
	}
	return o
}()

// decodeStrict decodes one JSON document, rejecting unknown fields.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("undecodable %q: %v", truncate(body), err)
	}
	return nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// sameTuples compares tuple lists by their canonical wire encoding, with
// nil and empty equal.
func sameTuples(got [][]wire.Value, want []relational.Tuple) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	return bytes.Equal(mustJSON(got), mustJSON(wire.FromTuples(want)))
}

// answerView is a client's copy of a standing query's answers, advanced by
// the diffs apply responses carry.
type answerView map[string]relational.Tuple

func newView(ts []relational.Tuple) answerView {
	v := answerView{}
	for _, t := range ts {
		v[relational.Fact{Args: t}.Key()] = t
	}
	return v
}

func (v answerView) apply(u wire.QueryUpdate) {
	for _, t := range wire.ToTuples(u.Removed) {
		delete(v, relational.Fact{Args: t}.Key())
	}
	for _, t := range wire.ToTuples(u.Added) {
		v[relational.Fact{Args: t}.Key()] = t
	}
}

func (v answerView) equals(ts []relational.Tuple) bool {
	if len(v) != len(ts) {
		return false
	}
	for _, t := range ts {
		if _, ok := v[relational.Fact{Args: t}.Key()]; !ok {
			return false
		}
	}
	return true
}

// expectedState is the independent model of one session: what its current
// state implies for each kind of response.
type expectedState interface {
	violations() int
	watchAnswers() ([]relational.Tuple, error)
	certain(q *query.Q) ([]relational.Tuple, error)
	possible(q *query.Q) ([]relational.Tuple, error)
	advance(dl relational.Delta)
}

// checker checks each response of a live workload against an independent
// computation, over per-session expected states. check must be called for
// every op of a session in that session's op order; distinct sessions may
// be checked concurrently.
type checker struct {
	states  []expectedState
	views   []answerView
	watchQs []string // canonical standing-query text per session
}

func newChecker(w *liveWorkload, states []expectedState) (*checker, error) {
	c := &checker{states: states}
	for i, ls := range w.sessions {
		ans, err := states[i].watchAnswers()
		if err != nil {
			return nil, err
		}
		c.views = append(c.views, newView(ans))
		c.watchQs = append(c.watchQs, parser.MustQuery(ls.watch).String())
	}
	return c, nil
}

// check verifies one response. Every response must decode, and apply
// responses always advance the expected state and the client's view of the
// standing answers; full additionally compares every answer with the
// independent computation (warm-up ops skip that, and the first full apply
// check then validates the whole chain of warm-up diffs).
func (c *checker) check(op *liveOp, body []byte, full bool) error {
	st := c.states[op.sess]
	switch op.kind {
	case kApply, kPass:
		var resp wire.ApplyResponse
		if err := decodeStrict(body, &resp); err != nil {
			st.advance(op.delta)
			return err
		}
		st.advance(op.delta)
		for _, u := range resp.Updates {
			if u.Query != c.watchQs[op.sess] {
				return fmt.Errorf("update for unknown standing query %q", u.Query)
			}
			c.views[op.sess].apply(u)
		}
		if !bytes.Equal(mustJSON(resp.Result.Applied), mustJSON(wire.FromDelta(op.delta))) {
			return fmt.Errorf("applied delta %s, sent %s", mustJSON(resp.Result.Applied), mustJSON(wire.FromDelta(op.delta)))
		}
		if resp.Result.ConstraintRelevant != (op.kind == kApply) {
			return fmt.Errorf("constraint_relevant = %v for a %s op", resp.Result.ConstraintRelevant, op.kind)
		}
		if !full {
			return nil
		}
		nv := st.violations()
		if resp.Consistent != (nv == 0) || resp.Violations != nv {
			return fmt.Errorf("consistent=%v violations=%d, want %d violations", resp.Consistent, resp.Violations, nv)
		}
		want, err := st.watchAnswers()
		if err != nil {
			return err
		}
		if !c.views[op.sess].equals(want) {
			return fmt.Errorf("standing answers after the diffs differ from the expected %d tuples", len(want))
		}
	case kQuery, kPossible:
		var resp wire.AnswerResponse
		if err := decodeStrict(body, &resp); err != nil || !full {
			return err
		}
		q, err := parser.Query(op.query)
		if err != nil {
			return err
		}
		var want []relational.Tuple
		if op.kind == kQuery {
			want, err = st.certain(q)
		} else {
			want, err = st.possible(q)
		}
		if err != nil {
			return err
		}
		if !sameTuples(resp.Answer.Tuples, want) {
			return fmt.Errorf("%s %q answered %s, want %s", op.kind, op.query, mustJSON(resp.Answer.Tuples), mustJSON(wire.FromTuples(want)))
		}
	case kAnswers:
		var resp wire.AnswerResponse
		if err := decodeStrict(body, &resp); err != nil || !full {
			return err
		}
		want, err := st.watchAnswers()
		if err != nil {
			return err
		}
		if resp.Stale || !sameTuples(resp.Answer.Tuples, want) {
			return fmt.Errorf("standing answers (stale=%v) %s, want %s", resp.Stale, mustJSON(resp.Answer.Tuples), mustJSON(wire.FromTuples(want)))
		}
	}
	return nil
}

// verifyLive checks every response of a live run, sessions in parallel
// (each session's ops in order), and returns the failed op counts of the
// timed window and of the warm-up. A failed op is a transport error, a
// non-2xx status, an undecodable body or a wrong answer. The prepare
// responses of the kept daemon count as warm-up ops: each must carry the
// standing query's initial answers.
func verifyLive(w *liveWorkload, run *liveRun) (failedTimed, failedWarm int, err error) {
	c, err := w.expect(w)
	if err != nil {
		return 0, 0, fmt.Errorf("setting up the verifier: %w", err)
	}
	type ref struct{ ci, j int }
	bySess := make([][]ref, len(w.sessions))
	for ci, ops := range w.clients {
		for j := range ops {
			bySess[ops[j].sess] = append(bySess[ops[j].sess], ref{ci, j})
		}
	}
	var (
		mu      sync.Mutex
		printed int
	)
	fail := func(warm bool, what string, err error) {
		mu.Lock()
		defer mu.Unlock()
		if warm {
			failedWarm++
		} else {
			failedTimed++
		}
		if printed++; printed <= 5 {
			fmt.Fprintf(os.Stderr, "cqabench: %s: %v\n", what, err)
		}
	}
	next := make(chan int, len(w.sessions)) // one send per session
	for si := range w.sessions {
		next <- si
	}
	close(next)
	var wg sync.WaitGroup
	for k := 0; k < min(runtime.NumCPU(), len(w.sessions)); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := range next {
				pr := run.preps[si]
				if err := c.check(&liveOp{kind: kAnswers, sess: si}, pr.body, true); err != nil {
					fail(true, fmt.Sprintf("prepare on session %d", si), err)
				}
				for _, r := range bySess[si] {
					op, res := &w.clients[r.ci][r.j], run.results[r.ci][r.j]
					warm := r.j < w.warm[r.ci]
					var err error
					switch {
					case res.err != nil:
						err = res.err
					case res.status != 200:
						err = fmt.Errorf("status %d: %s", res.status, truncate(res.body))
					}
					if err != nil {
						if op.kind.isApply() {
							c.states[si].advance(op.delta)
						}
					} else {
						err = c.check(op, res.body, !warm)
					}
					if err != nil {
						fail(warm, fmt.Sprintf("client %d op %d (%s)", r.ci, r.j, op.kind), err)
					}
				}
			}
		}()
	}
	wg.Wait()
	return failedTimed, failedWarm, nil
}

// --- fd-live: per-key-group search one-shots ----------------------------

// fdState is the independent state of one fd-live session. The FD-only set
// makes every repair a product of per-key-group choices, and every query of
// the workload reads only the key groups named by its constants, so each
// expected answer is a search-engine one-shot over those groups' facts
// alone — a few rows, a handful of repairs. The standing query reads each
// watched group on its own, so its answers are the union of one such
// one-shot per watched group.
type fdState struct {
	set       *constraint.Set
	r0        map[string]map[string]relational.Fact // key → fact key → r0 fact
	s         map[string][]relational.Fact
	watched   map[string]relational.Fact // key → its w fact
	watchQ    *query.Q
	groupViol map[string]int
	viol      int
	watchAns  map[string][]relational.Tuple // watched key → its answers, while valid
}

func newFDChecker(w *liveWorkload) (*checker, error) {
	states := make([]expectedState, len(w.sessions))
	for i, ls := range w.sessions {
		st := &fdState{
			set:       ls.set,
			r0:        map[string]map[string]relational.Fact{},
			s:         map[string][]relational.Fact{},
			watched:   map[string]relational.Fact{},
			watchQ:    parser.MustQuery(ls.watch),
			groupViol: map[string]int{},
			watchAns:  map[string][]relational.Tuple{},
		}
		ls.initial.ForEach(func(f relational.Fact) bool {
			k, _ := f.Args[0].AsStr()
			switch f.Pred {
			case "r0":
				st.addRow(k, f)
			case "s":
				st.s[k] = append(st.s[k], f)
			case "w":
				st.watched[k] = f
			}
			return true
		})
		for k := range st.r0 {
			st.recount(k)
		}
		states[i] = st
	}
	return newChecker(w, states)
}

func (st *fdState) addRow(k string, f relational.Fact) {
	if st.r0[k] == nil {
		st.r0[k] = map[string]relational.Fact{}
	}
	st.r0[k][f.Key()] = f
}

// recount refreshes key group k's violation count with a scratch check of
// the group's rows alone.
func (st *fdState) recount(k string) {
	d := relational.NewInstance()
	for _, f := range st.r0[k] {
		d.Insert(f)
	}
	n := len(nullcqa.CheckViolations(d, st.set).IC)
	st.viol += n - st.groupViol[k]
	st.groupViol[k] = n
}

func (st *fdState) advance(dl relational.Delta) {
	touched := map[string]bool{}
	for _, f := range dl.Removed {
		k, _ := f.Args[0].AsStr()
		delete(st.r0[k], f.Key())
		touched[k] = true
	}
	for _, f := range dl.Added {
		k, _ := f.Args[0].AsStr()
		st.addRow(k, f)
		touched[k] = true
	}
	for _, k := range sortedStrings(touched) {
		st.recount(k)
		delete(st.watchAns, k)
	}
}

func (st *fdState) violations() int { return st.viol }

// sub builds the facts of the named key groups.
func (st *fdState) sub(keys ...string) *relational.Instance {
	d := relational.NewInstance()
	for _, k := range keys {
		for _, f := range st.r0[k] {
			d.Insert(f)
		}
		for _, f := range st.s[k] {
			d.Insert(f)
		}
	}
	return d
}

func (st *fdState) watchAnswers() ([]relational.Tuple, error) {
	var all []relational.Tuple
	for k, w := range st.watched {
		ans, ok := st.watchAns[k]
		if !ok {
			d := st.sub(k)
			d.Insert(w)
			a, err := nullcqa.ConsistentAnswersCtx(context.Background(), d, st.set, st.watchQ, searchOpts)
			if err != nil {
				return nil, err
			}
			ans = a.Tuples
			st.watchAns[k] = ans
		}
		all = append(all, ans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Compare(all[j]) < 0 })
	return all, nil
}

// queryKeys returns the string constants of q: the key groups it reads.
func queryKeys(q *query.Q) []string {
	keys := map[string]bool{}
	for _, d := range q.Disjuncts {
		for _, l := range d.Lits {
			for _, t := range l.Atom.Args {
				if !t.IsVar() {
					if s, ok := t.Const.AsStr(); ok {
						keys[s] = true
					}
				}
			}
		}
	}
	return sortedStrings(keys)
}

func (st *fdState) certain(q *query.Q) ([]relational.Tuple, error) {
	a, err := nullcqa.ConsistentAnswersCtx(context.Background(), st.sub(queryKeys(q)...), st.set, q, searchOpts)
	return a.Tuples, err
}

func (st *fdState) possible(q *query.Q) ([]relational.Tuple, error) {
	return nullcqa.PossibleAnswersCtx(context.Background(), st.sub(queryKeys(q)...), st.set, q, searchOpts)
}

// --- ric-live: fresh scratch sessions --------------------------------------

// scratchState is the independent state of one ric-live session: the
// current fact set, and a fresh search-engine session over it (session ≡
// scratch). A fresh session is built at most once per state, and is kept
// across updates of relations no constraint mentions for every query that
// does not read them either: under the null-based semantics the repairs
// restricted to the constrained relations do not depend on such facts.
type scratchState struct {
	set         *constraint.Set
	constrained map[string]bool
	facts       map[string]relational.Fact
	watchQ      *query.Q
	fresh       *session.Session
	drifted     map[string]bool // unconstrained relations changed since fresh was built
	viol        int
	violOK      bool
	watch       []relational.Tuple
	watchOK     bool
}

func newScratchChecker(w *liveWorkload) (*checker, error) {
	states := make([]expectedState, len(w.sessions))
	for i, ls := range w.sessions {
		st := &scratchState{
			set:         ls.set,
			constrained: map[string]bool{},
			facts:       map[string]relational.Fact{},
			watchQ:      parser.MustQuery(ls.watch),
		}
		for _, p := range ls.set.Preds() {
			st.constrained[p.Name] = true
		}
		ls.initial.ForEach(func(f relational.Fact) bool {
			st.facts[f.Key()] = f
			return true
		})
		states[i] = st
	}
	return newChecker(w, states)
}

func (st *scratchState) instance() *relational.Instance {
	d := relational.NewInstance()
	for _, f := range st.facts {
		d.Insert(f)
	}
	return d
}

// session returns a fresh session whose answers to q are current.
func (st *scratchState) session(q *query.Q) *session.Session {
	if st.fresh != nil {
		for _, p := range q.Preds() {
			if st.drifted[p] {
				st.fresh = nil
				break
			}
		}
	}
	if st.fresh == nil {
		st.fresh = nullcqa.NewSession(st.instance(), st.set, searchOpts)
		st.drifted = map[string]bool{}
	}
	return st.fresh
}

func (st *scratchState) advance(dl relational.Delta) {
	for _, f := range dl.Removed {
		delete(st.facts, f.Key())
	}
	for _, f := range dl.Added {
		st.facts[f.Key()] = f
	}
	for _, f := range dl.Facts() {
		if st.constrained[f.Pred] {
			st.fresh, st.violOK, st.watchOK = nil, false, false
			return
		}
	}
	for _, f := range dl.Facts() {
		st.drifted[f.Pred] = true
	}
	for _, p := range st.watchQ.Preds() {
		if st.drifted[p] {
			st.watchOK = false
		}
	}
}

func (st *scratchState) violations() int {
	if !st.violOK {
		st.viol, st.violOK = len(nullcqa.CheckViolations(st.instance(), st.set).IC), true
	}
	return st.viol
}

func (st *scratchState) watchAnswers() ([]relational.Tuple, error) {
	if st.watchOK {
		return st.watch, nil
	}
	a, err := st.session(st.watchQ).Answer(st.watchQ)
	if err != nil {
		return nil, err
	}
	st.watch, st.watchOK = a.Tuples, true
	return a.Tuples, nil
}

func (st *scratchState) certain(q *query.Q) ([]relational.Tuple, error) {
	a, err := st.session(q).Answer(q)
	return a.Tuples, err
}

func (st *scratchState) possible(q *query.Q) ([]relational.Tuple, error) {
	return st.session(q).Possible(q)
}
