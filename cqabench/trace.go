package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/constraint"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/repairprog"
	"repro/internal/session"
	"repro/internal/stable"
	"repro/internal/wire"
)

// span is one timed call into a layer. Spans of one op share op; parent is
// the index of the enclosing span in its tracer (-1 for an op's root).
type span struct {
	name       string
	start, end time.Duration // since the tracers' common start
	parent     int32
	op         int32
}

// tracer records one caller's spans in memory; a live replay has one per
// client. A nil tracer records nothing, so the same replay code runs
// traced and untraced.
type tracer struct {
	t0    time.Time
	spans []span
	op    int32
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// setOp makes op the id of the spans that follow.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = int32(op)
	}
}

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, op: t.op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t != nil {
		t.spans[i].end = time.Since(t.t0)
	}
}

// perOp sums span durations by name for ops 0..n-1: perOp(n)[op][name].
func (t *tracer) perOp(n int) []map[string]time.Duration {
	out := make([]map[string]time.Duration, n)
	for i := range out {
		out[i] = map[string]time.Duration{}
	}
	for _, s := range t.spans {
		out[s.op][s.name] += s.end - s.start
	}
	return out
}

// writeSpans dumps every tracer's spans as JSON lines into dir/file; the
// caller field numbers the tracers.
func writeSpans(dir, file string, trs []*tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for c, t := range trs {
		for _, s := range t.spans {
			fmt.Fprintf(w, `{"caller":%d,"op":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d}`+"\n",
				c, s.op, s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- live replay -------------------------------------------------------------

// replaySession mirrors cmd/cqad's liveSession: one session.Session plus
// its standing query and the diff its subscription recorded.
type replaySession struct {
	s    *session.Session
	p    *session.Prepared
	diff *session.QueryUpdate
}

// liveCounters are the session-layer counters read from ApplyResult,
// Answer and DirectStats during a replay.
type liveCounters struct {
	applies, relevant, reenumerated int
	survived, invalidated           int
	refreshed, skipped              int
	deltaFacts                      int
	numRepairs, statesPerRepair     []float64
}

func (c *liveCounters) add(o liveCounters) {
	c.applies += o.applies
	c.relevant += o.relevant
	c.reenumerated += o.reenumerated
	c.survived += o.survived
	c.invalidated += o.invalidated
	c.refreshed += o.refreshed
	c.skipped += o.skipped
	c.deltaFacts += o.deltaFacts
	c.numRepairs = append(c.numRepairs, o.numRepairs...)
	c.statesPerRepair = append(c.statesPerRepair, o.statesPerRepair...)
}

// replayLive decodes the recorded request bodies into internal/wire types
// and calls the session layer in the order cmd/cqad's handlers do (Apply,
// then Consistent, then Violations when inconsistent; prepared reads for
// the answers GET), encoding every response with wire.From* and
// encoding/json. Like the live run, each client is one goroutine serving
// its own sessions in order; with traced set, each records its spans in its
// own tracer (out.tracers, one per client, op ids = op indexes).
func replayLive(w *liveWorkload, traced bool) (*replayOut, error) {
	out := &replayOut{}
	ctx := context.Background()
	sessions := make([]*replaySession, len(w.sessions))
	for i, ls := range w.sessions {
		var req wire.CreateSessionRequest
		if err := decodeStrict(ls.create, &req); err != nil {
			return nil, err
		}
		set, err := parser.Constraints(req.ConstraintsText)
		if err != nil {
			return nil, err
		}
		opts, err := engine.Options(req.Engine, req.Workers)
		if err != nil {
			return nil, err
		}
		rs := &replaySession{s: session.New(req.Instance.ToInstance(), set, opts)}
		rs.s.Consistent()
		var preq wire.PrepareRequest
		if err := decodeStrict(ls.prepare, &preq); err != nil {
			return nil, err
		}
		q, err := parser.Query(preq.Query)
		if err != nil {
			return nil, err
		}
		if rs.p, err = rs.s.PrepareCtx(ctx, q); err != nil {
			return nil, err
		}
		rs.p.Subscribe(func(u session.QueryUpdate) { rs.diff = &u })
		sessions[i] = rs
		b, err := encodeResponse(preparedResponse(rs.p))
		if err != nil {
			return nil, err
		}
		out.preps = append(out.preps, b)
	}

	n := len(w.clients)
	out.bodies = make([][][]byte, n)
	out.tracers = make([]*tracer, n)
	counters := make([]liveCounters, n)
	errs := make([]error, n)
	t0 := time.Now()
	var wg sync.WaitGroup
	for ci, ops := range w.clients {
		out.bodies[ci] = make([][]byte, len(ops))
		if traced {
			out.tracers[ci] = newTracer(t0)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := out.tracers[ci]
			var warmCounters liveCounters // the counters cover the timed window only
			for j := range ops {
				tr.setOp(j)
				cnt := &counters[ci]
				if j < w.warm[ci] {
					cnt = &warmCounters
				}
				body, err := replayOp(ctx, tr, sessions[ops[j].sess], &ops[j], cnt)
				if err != nil {
					errs[ci] = fmt.Errorf("replaying %s op %d of client %d: %w", ops[j].kind, j, ci, err)
					return
				}
				out.bodies[ci][j] = body
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, c := range counters {
		out.counters.add(c)
	}
	return out, nil
}

// replayOut is what an in-process replay answered: the prepare responses
// per session, every op's response per client, the session counters and,
// when traced, one tracer per client.
type replayOut struct {
	preps    [][]byte
	bodies   [][][]byte
	counters liveCounters
	tracers  []*tracer
}

// preparedResponse renders a standing query's maintained state exactly as
// cmd/cqad does for prepare and for the answers GET.
func preparedResponse(p *session.Prepared) wire.AnswerResponse {
	q := p.Query()
	ans := wire.Answer{Boolean: p.Boolean()}
	if !q.IsBoolean() {
		ans.Tuples = wire.FromTuples(p.Answers())
	}
	return wire.AnswerResponse{Query: q.String(), Answer: ans, Stale: !p.Valid()}
}

// encodeResponse renders v exactly as cqad's writeJSON does.
func encodeResponse(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func replayOp(ctx context.Context, tr *tracer, rs *replaySession, op *liveOp, c *liveCounters) ([]byte, error) {
	root := tr.begin("op."+op.kind.String(), -1)
	defer tr.end(root)
	switch op.kind {
	case kApply, kPass:
		sp := tr.begin("wire.decode", root)
		var req wire.ApplyRequest
		err := decodeStrict(op.body, &req)
		var delta relational.Delta
		if err == nil && req.Delta != nil {
			delta = req.Delta.ToDelta()
		}
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		before := rs.s.DirectStats().DeltaFacts
		sp = tr.begin("session.apply", root)
		res, err := rs.s.ApplyCtx(ctx, delta)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("session.consistent", root)
		ar := wire.ApplyResponse{Consistent: rs.s.Consistent()}
		if !ar.Consistent {
			ar.Violations = len(rs.s.Violations())
		}
		tr.end(sp)
		c.applies++
		c.deltaFacts += rs.s.DirectStats().DeltaFacts - before
		if res.ConstraintRelevant {
			c.relevant++
		}
		if res.Reenumerated {
			c.reenumerated++
		}
		c.survived += res.RepairsSurvived
		c.invalidated += res.RepairsInvalidated
		c.refreshed += res.QueriesRefreshed
		c.skipped += res.QueriesSkipped
		sp = tr.begin("wire.encode", root)
		ar.Result = wire.FromApplyResult(res)
		if rs.diff != nil {
			ar.Updates = append(ar.Updates, wire.FromQueryUpdate(*rs.diff))
			rs.diff = nil
		}
		b, err := encodeResponse(ar)
		tr.end(sp)
		return b, err
	case kQuery, kPossible:
		sp := tr.begin("wire.decode", root)
		var req wire.QueryRequest
		err := decodeStrict(op.body, &req)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("parser.query", root)
		q, err := parser.Query(req.Query)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		ar := wire.AnswerResponse{Query: q.String()}
		if op.kind == kQuery {
			sp = tr.begin("session.query", root)
			ans, err := rs.s.AnswerCtx(ctx, q)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			if ans.StatesExplored > 0 && ans.NumRepairs > 0 {
				c.numRepairs = append(c.numRepairs, float64(ans.NumRepairs))
				c.statesPerRepair = append(c.statesPerRepair, float64(ans.StatesExplored)/float64(ans.NumRepairs))
			}
			sp = tr.begin("wire.encode", root)
			ar.Answer = wire.FromAnswer(ans)
		} else {
			sp = tr.begin("session.possible", root)
			tuples, err := rs.s.PossibleCtx(ctx, q)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("wire.encode", root)
			ar.Semantics = "possible"
			if q.IsBoolean() {
				ar.Answer.Boolean = len(tuples) > 0
			} else {
				ar.Answer.Tuples = wire.FromTuples(tuples)
			}
		}
		b, err := encodeResponse(ar)
		tr.end(sp)
		return b, err
	default:
		sp := tr.begin("session.answers", root)
		q, tuples, boolean, valid := rs.p.Query(), rs.p.Answers(), rs.p.Boolean(), rs.p.Valid()
		tr.end(sp)
		sp = tr.begin("wire.encode", root)
		ans := wire.Answer{Boolean: boolean}
		if !q.IsBoolean() {
			ans.Tuples = wire.FromTuples(tuples)
		}
		b, err := encodeResponse(wire.AnswerResponse{Query: q.String(), Answer: ans, Stale: !valid})
		tr.end(sp)
		return b, err
	}
}

// --- program-oneshot replay ----------------------------------------------

// oneshotLayerCounts are the counts the composed replay reads at the layer
// boundaries of one op.
type oneshotLayerCounts struct {
	atoms, rules, allocs float64
	models, repairs      float64
	firstModel           time.Duration
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func heapAllocObjects() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// replayOneshot answers one input by composing the program engine's layers
// explicitly — parser, constraint.Analyze, repairprog build,
// Translation.BaseGrounding, stable.EnumerateCtx with a ModelReader, and
// query.BaseEval patching — exactly the work nullcqa.ConsistentAnswersCtx
// does with the program engine for a non-boolean query.
func replayOneshot(tr *tracer, in oneshotInput) (oneshotAnswer, oneshotLayerCounts, error) {
	var lc oneshotLayerCounts
	root := tr.begin("op.oneshot", -1)
	defer tr.end(root)
	sp := tr.begin("parser.parse", root)
	d, err1 := parser.Instance(in.inst)
	set, err2 := parser.Constraints(in.ics)
	q, err3 := parser.Query(in.queryTxt)
	tr.end(sp)
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			return oneshotAnswer{}, lc, err
		}
	}
	if err := q.Validate(); err != nil {
		return oneshotAnswer{}, lc, err
	}
	if q.IsBoolean() {
		return oneshotAnswer{}, lc, fmt.Errorf("boolean queries take the short-circuit path, which the replay does not compose")
	}
	sp = tr.begin("constraint.analyze", root)
	_ = constraint.Analyze(set)
	tr.end(sp)

	sp = tr.begin("repairprog.build", root)
	trn, err := repairprog.Build(d, set, programOpts.Variant)
	tr.end(sp)
	if err != nil {
		return oneshotAnswer{}, lc, err
	}
	trn.GroundOptions = programOpts.Ground

	a0 := heapAllocObjects()
	sp = tr.begin("ground.ground", root)
	gp, err := trn.BaseGrounding()
	tr.end(sp)
	lc.allocs = float64(heapAllocObjects() - a0)
	if err != nil {
		return oneshotAnswer{}, lc, err
	}
	lc.atoms, lc.rules = float64(gp.NumAtoms()), float64(len(gp.Rules))

	sp = tr.begin("repairprog.interpret", root)
	reader := trn.NewModelReader(gp)
	tr.end(sp)
	seen := relational.NewInstanceSet()
	var repairs []*relational.Instance
	start := time.Now()
	solve := tr.begin("stable.solve", root)
	err = stable.EnumerateCtx(context.Background(), gp, programOpts.Stable, func(m stable.Model) bool {
		if lc.models == 0 {
			lc.firstModel = time.Since(start)
		}
		lc.models++
		sp := tr.begin("repairprog.interpret", solve)
		inst, _ := reader.Repair(m)
		if seen.Add(inst) {
			repairs = append(repairs, inst)
		}
		tr.end(sp)
		return true
	})
	tr.end(solve)
	if err != nil {
		return oneshotAnswer{}, lc, err
	}
	lc.repairs = float64(len(repairs))
	if len(repairs) == 0 {
		return oneshotAnswer{}, lc, session.ErrInconsistentUnrepairable
	}

	sp = tr.begin("query.patch", root)
	be, err := query.NewBaseEval(d, q)
	var tuples []relational.Tuple
	if err == nil {
		tuples = certainPatched(be, repairs)
	}
	tr.end(sp)
	return oneshotAnswer{tuples: tuples, numRepairs: len(repairs), err: err}, lc, nil
}

// certainPatched intersects the per-repair answers as the session layer
// does: (base answers − ∪ lost_r) ∪ ∩ fresh_r, from BaseEval.DiffOn patches.
func certainPatched(be *query.BaseEval, repairs []*relational.Instance) []relational.Tuple {
	lostAny := map[string]bool{}
	var freshAll map[string]relational.Tuple
	for i, r := range repairs {
		fresh, lost := be.DiffOn(r)
		for k := range lost {
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
	var out []relational.Tuple
	for i, t := range be.BaseAnswers() {
		if !lostAny[be.BaseKeys()[i]] {
			out = append(out, t)
		}
	}
	for _, t := range freshAll {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
