package session

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/repair"
	"repro/internal/repairprog"
	"repro/internal/stable"
)

// Answer computes the consistent answers to q on the session's current
// head with the session's engine. Results are identical to a one-shot
// computation on the same instance; a warm session answers from its cached
// repair set (search/program) or cached translation and base grounding
// (program engines) instead of re-deriving them.
func (s *Session) Answer(q *query.Q) (Answer, error) {
	return s.AnswerCtx(context.Background(), q)
}

// AnswerCtx is Answer under a context. Cancellation aborts the underlying
// repair/stable enumeration and returns ctx.Err(); the session's caches are
// never left partially filled (a completed enumeration populates them, a
// cancelled one leaves them cold), so later calls are unaffected.
func (s *Session) AnswerCtx(ctx context.Context, q *query.Q) (Answer, error) {
	if err := q.Validate(); err != nil {
		return Answer{}, err
	}
	switch s.opts.Engine {
	case EngineProgramCautious:
		return s.cautiousAnswer(ctx, q)
	case EngineProgram:
		return s.programAnswer(ctx, q)
	case EngineDirect:
		return s.directAnswer(ctx, q)
	default:
		return s.searchAnswer(ctx, q)
	}
}

// searchAnswer implements EngineSearch. Non-boolean queries intersect one
// base evaluation patched across the cached repair set. Boolean queries
// answer from the cache when it exists; a cold session streams the search
// (seeded from the maintained violation lists) exactly like the one-shot
// engine — leaves feed the online ≤_D antichain, each surviving candidate
// is evaluated by patching the base result along its delta, and the
// moment a falsifying leaf carries a ConfirmMinimal certificate the whole
// search is cancelled (the certain answer is already no). A completed
// stream populates the repair cache for later calls.
func (s *Session) searchAnswer(ctx context.Context, q *query.Q) (Answer, error) {
	if !q.IsBoolean() {
		if err := s.ensureRepairs(ctx); err != nil {
			return Answer{}, err
		}
		if len(s.repairs) == 0 {
			return Answer{}, errEmptyRepairSet
		}
		ans := Answer{NumRepairs: len(s.repairs), StatesExplored: s.searchStats.StatesExplored}
		var err error
		if ans.Tuples, err = s.certainTuples(q); err != nil {
			return Answer{}, err
		}
		return ans, nil
	}

	cur := s.head.Current()
	// One base evaluation of q; every candidate is answered by patching
	// that result along its delta — O(|Δ|) anchored joins instead of a
	// full per-candidate evaluation.
	be, err := query.NewBaseEval(cur, q)
	if err != nil {
		return Answer{}, err
	}
	if s.repairsOK {
		if len(s.repairs) == 0 {
			return Answer{}, errEmptyRepairSet
		}
		ans := Answer{NumRepairs: len(s.repairs), StatesExplored: s.searchStats.StatesExplored, Boolean: true}
		for _, r := range s.repairs {
			if len(be.EvalOn(r)) == 0 {
				ans.Boolean = false
				break
			}
		}
		return ans, nil
	}

	ropts := s.opts.Repair
	if !ropts.ScratchProbe {
		ropts.Seed = s.seed()
	}
	ac := repair.NewAntichain(cur, ropts.Mode)
	holdsBy := map[*relational.Instance]bool{}
	short := false
	// A failed certificate costs up to 2^ConfirmLimit consistency checks
	// (the falsifying leaf is minimal so far, but its dominator arrives
	// later), so stop attempting after a few misses: the stream still
	// completes and the final answer is unchanged.
	confirmBudget := maxConfirmAttempts
	stats, err := repair.EnumerateCtx(ctx, cur, s.set, ropts, func(leaf *relational.Instance) bool {
		minimal, displaced := ac.Add(leaf)
		for _, m := range displaced {
			delete(holdsBy, m)
		}
		if !minimal {
			return true
		}
		holds := len(be.EvalOn(leaf)) > 0
		holdsBy[leaf] = holds
		if !holds && confirmBudget > 0 {
			confirmBudget--
			if repair.ConfirmMinimal(cur, leaf, s.set, s.opts.Repair) {
				short = true
				return false
			}
		}
		return true
	})
	if err != nil {
		return Answer{}, err
	}
	ans := Answer{StatesExplored: stats.StatesExplored}
	if short {
		ans.ShortCircuited = true
		// Exactly one repair — the confirmed counterexample — has been
		// established; report that.
		ans.NumRepairs = 1
		return ans, nil
	}
	if stats.Leaves == 0 {
		return Answer{}, errEmptyRepairSet
	}
	// The stream ran to completion: keep its results as the session's
	// repair cache.
	s.repairs, s.deltas = ac.Results()
	s.searchStats = stats
	s.rebuildPostings()
	s.repairsOK = true
	ans.NumRepairs = len(s.repairs)
	ans.Boolean = true
	for _, r := range s.repairs {
		if !holdsBy[r] {
			ans.Boolean = false
			break
		}
	}
	return ans, nil
}

// programAnswer implements EngineProgram. Non-boolean queries evaluate
// the cached repair set (built once from the stable-model stream). A
// boolean query with no cache rides the model stream and short-circuits
// at the first falsifying repair — every stable model of Π(D, IC) induces
// a repair (Theorem 4), so the certain answer is already no and the rest
// of the enumeration is cancelled.
func (s *Session) programAnswer(ctx context.Context, q *query.Q) (Answer, error) {
	if !q.IsBoolean() {
		if err := s.ensureRepairs(ctx); err != nil {
			return Answer{}, err
		}
		if len(s.repairs) == 0 {
			return Answer{}, errEmptyRepairSet
		}
		ans := Answer{NumRepairs: len(s.repairs)}
		var err error
		if ans.Tuples, err = s.certainTuples(q); err != nil {
			return Answer{}, err
		}
		return ans, nil
	}
	cur := s.head.Current()
	be, err := query.NewBaseEval(cur, q)
	if err != nil {
		return Answer{}, err
	}
	if s.repairsOK {
		if len(s.repairs) == 0 {
			return Answer{}, errEmptyRepairSet
		}
		ans := Answer{NumRepairs: len(s.repairs), Boolean: true}
		for _, r := range s.repairs {
			if len(be.EvalOn(r)) == 0 {
				ans.Boolean = false
				break
			}
		}
		return ans, nil
	}
	tr, err := s.translation()
	if err != nil {
		return Answer{}, err
	}
	seen := relational.NewInstanceSet()
	holds := true
	short := false
	if err := tr.StreamRepairsCtx(ctx, s.opts.Stable, func(inst *relational.Instance, delta relational.Delta, _ stable.Model) bool {
		if !seen.Add(inst) {
			return true
		}
		if len(be.EvalDelta(inst, delta)) == 0 {
			holds = false
			short = true
			return false
		}
		return true
	}); err != nil {
		return Answer{}, err
	}
	if seen.Len() == 0 {
		return Answer{}, errEmptyRepairSet
	}
	return Answer{NumRepairs: seen.Len(), Boolean: holds, ShortCircuited: short}, nil
}

// cautiousAnswer implements EngineProgramCautious: cautious reasoning
// over the stable models of Π(D, IC) ∪ Π(q) on the session's cached
// translation and base grounding. A query mentioning a passthrough
// relation that drifted since the translation was built rebuilds the
// translation first (see Session.trDirty).
func (s *Session) cautiousAnswer(ctx context.Context, q *query.Q) (Answer, error) {
	if len(s.trDirty) > 0 {
		for _, name := range q.Preds() {
			if s.trDirty[name] {
				s.tr, s.trDirty = nil, nil
				break
			}
		}
	}
	tr, err := s.translation()
	if err != nil {
		return Answer{}, err
	}
	return s.cautiousQuery(ctx, tr, q)
}

// cautiousQuery answers one query over the translation's cached base
// grounding: the query rules are ground against the retained possible-set
// snapshot (no re-grounding, no Facts/Rules copy), and the stable models
// of the extended program drive the cautious intersection. The certain
// answers are the running intersection of each model's answer atoms; a
// boolean query short-circuits the moment a model lacks the answer atom —
// that model witnesses a repair falsifying the query, so the certain
// answer is already no and the enumeration is cancelled. Non-boolean
// queries enumerate fully: NumRepairs (the distinct induced repairs) is
// part of the cross-engine differential contract.
func (s *Session) cautiousQuery(ctx context.Context, tr *repairprog.Translation, q *query.Q) (Answer, error) {
	gp, err := tr.GroundWithQuery(q)
	if err != nil {
		return Answer{}, err
	}

	boolean := q.IsBoolean()
	emptyKey := relational.Tuple{}.Key()
	// The distinct-repair count (part of the cross-engine contract) needs
	// no materialized instances: every repair is determined by its delta
	// against the shared base, so a fingerprint delta set dedups in
	// O(|Δ|) per model with no instance build and no key strings at all.
	reader := tr.NewModelReader(gp)
	repairSeen := relational.NewDeltaSet()
	certain := map[string]relational.Tuple{}
	first := true
	short := false
	if err := stable.EnumerateCtx(ctx, gp, s.opts.Stable, func(m stable.Model) bool {
		repairSeen.Add(reader.Delta(m))
		here := map[string]relational.Tuple{}
		for _, id := range m {
			f := gp.Atoms[id]
			if f.Pred == repairprog.AnswerPred {
				here[f.Args.Key()] = f.Args
			}
		}
		if first {
			first = false
			certain = here
		} else {
			for k := range certain {
				if _, ok := here[k]; !ok {
					delete(certain, k)
				}
			}
		}
		if boolean {
			if _, ok := certain[emptyKey]; !ok {
				short = true
				return false
			}
		}
		return true
	}); err != nil {
		return Answer{}, err
	}
	if first {
		return Answer{}, fmt.Errorf("the repair program has no stable model: %w", ErrInconsistentUnrepairable)
	}

	ans := Answer{NumRepairs: repairSeen.Len(), ShortCircuited: short}
	if boolean {
		_, ans.Boolean = certain[emptyKey]
		return ans, nil
	}
	ans.Tuples = sortedTuples(certain)
	return ans, nil
}

// Possible returns the tuples answering q in at least one repair (brave
// semantics). The search engine evaluates the cached repair set; the
// program engines ride the stable-model stream, cancelling a boolean
// query at the first satisfying repair.
func (s *Session) Possible(q *query.Q) ([]relational.Tuple, error) {
	return s.PossibleCtx(context.Background(), q)
}

// PossibleCtx is Possible under a context (see AnswerCtx for the
// cancellation contract).
func (s *Session) PossibleCtx(ctx context.Context, q *query.Q) ([]relational.Tuple, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	switch s.opts.Engine {
	case EngineDirect:
		return s.directPossible(ctx, q)
	case EngineSearch:
	default:
		return s.possibleProgram(ctx, q)
	}
	if err := s.ensureRepairs(ctx); err != nil {
		return nil, err
	}
	if len(s.repairs) == 0 {
		return nil, errEmptyRepairSet
	}
	be, err := query.NewBaseEval(s.head.Current(), q)
	if err != nil {
		return nil, err
	}
	seen := map[string]relational.Tuple{}
	for _, r := range s.repairs {
		for _, t := range be.EvalOn(r) {
			seen[t.Key()] = t
		}
	}
	return sortedTuples(seen), nil
}

// possibleProgram unions per-repair answers over the stable-model stream
// of the session's translation.
func (s *Session) possibleProgram(ctx context.Context, q *query.Q) ([]relational.Tuple, error) {
	tr, err := s.translation()
	if err != nil {
		return nil, err
	}
	be, err := query.NewBaseEval(s.head.Current(), q)
	if err != nil {
		return nil, err
	}
	boolean := q.IsBoolean()
	seenRepair := relational.NewInstanceSet()
	seen := map[string]relational.Tuple{}
	if err := tr.StreamRepairsCtx(ctx, s.opts.Stable, func(inst *relational.Instance, delta relational.Delta, _ stable.Model) bool {
		if !seenRepair.Add(inst) {
			return true
		}
		for _, t := range be.EvalDelta(inst, delta) {
			seen[t.Key()] = t
		}
		return !(boolean && len(seen) > 0)
	}); err != nil {
		return nil, err
	}
	return sortedTuples(seen), nil
}

// certainTuples intersects the answers of q across the cached repairs,
// breaking off as soon as the intersection empties. q is evaluated in
// full once, on the current head; each repair's answer set is then
// computed by patching that base result along its delta, so k repairs
// cost one evaluation plus k·O(|Δ|) anchored joins rather than k full
// joins.
func (s *Session) certainTuples(q *query.Q) ([]relational.Tuple, error) {
	be, err := query.NewBaseEval(s.head.Current(), q)
	if err != nil {
		return nil, err
	}
	return certainWith(be, s.repairs), nil
}

// certainWith is the shared intersection core. Each repair's answer set is
// (base answers − lost_r) ∪ fresh_r with fresh_r disjoint from the base
// answers, so the intersection across the repair set is
//
//	(base answers − ∪_r lost_r) ∪ ∩_r fresh_r
//
// computed from the per-repair diffs in O(Σ|diff_r|) plus one linear pass
// over the (sorted) base answers — no per-repair answer list is ever
// materialized.
func certainWith(be *query.BaseEval, repairs []*relational.Instance) []relational.Tuple {
	if len(repairs) == 0 {
		return nil
	}
	var lostAny map[string]bool
	var freshAll map[string]relational.Tuple
	for i, r := range repairs {
		fresh, lost := be.DiffOn(r)
		for k := range lost {
			if lostAny == nil {
				lostAny = map[string]bool{}
			}
			lostAny[k] = true
		}
		if i == 0 {
			freshAll = fresh
			continue
		}
		for k := range freshAll {
			if _, ok := fresh[k]; !ok {
				delete(freshAll, k)
			}
		}
	}
	base, keys := be.BaseAnswers(), be.BaseKeys()
	freshSorted := make([]relational.Tuple, 0, len(freshAll))
	for _, t := range freshAll {
		freshSorted = append(freshSorted, t)
	}
	sort.Slice(freshSorted, func(i, j int) bool { return freshSorted[i].Compare(freshSorted[j]) < 0 })
	if lostAny == nil && len(freshSorted) == 0 {
		return append([]relational.Tuple(nil), base...)
	}
	out := make([]relational.Tuple, 0, len(base)+len(freshSorted))
	fi := 0
	for ti, t := range base {
		if lostAny != nil && lostAny[keys[ti]] {
			continue
		}
		for fi < len(freshSorted) && freshSorted[fi].Compare(t) < 0 {
			out = append(out, freshSorted[fi])
			fi++
		}
		out = append(out, t)
	}
	out = append(out, freshSorted[fi:]...)
	if len(out) == 0 {
		return nil
	}
	return out
}

// intersectSorted intersects two Compare-sorted distinct tuple lists with
// a two-pointer walk, preserving order.
func intersectSorted(a, b []relational.Tuple) []relational.Tuple {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Compare(b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// sortedTuples flattens a keyed tuple set into Compare order.
func sortedTuples(m map[string]relational.Tuple) []relational.Tuple {
	if len(m) == 0 {
		return nil
	}
	out := make([]relational.Tuple, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
