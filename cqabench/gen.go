package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/constraint"
	"repro/internal/relational"
	"repro/internal/wire"
)

// opKind is an op class. Each class does work of one kind, so its latency
// distribution is unimodal and its p50 is steady.
type opKind uint8

const (
	kApply    opKind = iota // constraint-relevant apply
	kPass                   // passthrough apply (touches only unconstrained relations)
	kQuery                  // ad-hoc certain query
	kPossible               // ad-hoc possible query
	kAnswers                // read of the prepared standing query
	kOneshot                // in-process one-shot (program-oneshot)
	numKinds
)

var kindNames = [numKinds]string{"apply", "apply_passthrough", "query", "possible", "answers", "oneshot"}

func (k opKind) String() string { return kindNames[k] }

func (k opKind) isApply() bool { return k == kApply || k == kPass }

// liveOp is one request of a live workload. Its body is encoded before any
// clock starts.
type liveOp struct {
	kind  opKind
	sess  int              // index into liveWorkload.sessions
	delta relational.Delta // apply ops, halves sorted
	query string           // query/possible ops: parser-syntax source
	body  []byte           // request body (nil for the answers GET)
}

// liveSession is one cqad session of a live workload.
type liveSession struct {
	tenant, name string
	initial      *relational.Instance // frozen; for verification only
	set          *constraint.Set
	watch        string // prepared standing query source
	watchName    string
	create       []byte // wire.CreateSessionRequest
	prepare      []byte // wire.PrepareRequest
}

// liveWorkload is a fully generated live run: sessions, and per client
// (one per tenant) an op list whose first warm ops are the untimed
// warm-up.
type liveWorkload struct {
	name     string
	sessions []*liveSession
	clients  [][]liveOp
	warm     []int
	// expect computes the independent expected responses (verify.go).
	expect func(w *liveWorkload) (*checker, error)
	// model statistics over the generated stream, for the stationarity
	// self-test: per-apply |D|, conflict and violation count of every
	// session.
	sizes, conflicts, violations [][]int
	// timedReanchors counts the session re-anchors the timed ops cause.
	timedReanchors int
}

func (w *liveWorkload) ops() int {
	n := 0
	for _, c := range w.clients {
		n += len(c)
	}
	return n
}

// Every live workload runs liveTenants tenants; each is one client on one
// keep-alive connection, round-robin over sessionsPerTenant sessions.
const (
	liveTenants       = 2
	sessionsPerTenant = 2
)

// liveConfig sizes a live workload.
type liveConfig struct {
	timedOps int // per client
	// mix is how many ops of each class one block of the stream holds.
	mix map[opKind]int
}

// deck deals op classes in shuffled blocks that hold each class exactly
// its count in the mix, so every stretch of the stream has the configured
// mix and only the order within a block is random.
type deck struct {
	cards []opKind
	next  int
}

func newDeck(mix map[opKind]int) *deck {
	d := &deck{}
	for k := kApply; k < numKinds; k++ {
		for i := 0; i < mix[k]; i++ {
			d.cards = append(d.cards, k)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) deal(rng *rand.Rand) opKind {
	if d.next == len(d.cards) {
		rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// sessionModel is a generator's per-session state machine: it emits
// stationary deltas (|D|, the conflict count and the violation count stay
// constant) and queries against the state the session will have reached.
type sessionModel interface {
	relevantDelta(rng *rand.Rand) relational.Delta
	passDelta(rng *rand.Rand) relational.Delta
	certainQuery(rng *rand.Rand) string
	possibleQuery(rng *rand.Rand) string
	size() int
	conflicts() int  // conflicted key groups or employees, dangling references
	violations() int // violating FD row pairs plus dangling references
}

// driftTracker mirrors relational.Head's anchor-relative delta bookkeeping
// and the session's re-anchor threshold.
type driftTracker struct {
	added, removed map[string]bool
	reanchors      int
}

// sessionReanchorDrift mirrors internal/session's rebaseThreshold: a
// session re-anchors once its head drifts further than this from the
// anchor.
const sessionReanchorDrift = 128

func newDrift() *driftTracker {
	return &driftTracker{added: map[string]bool{}, removed: map[string]bool{}}
}

func (d *driftTracker) apply(dl relational.Delta) {
	for _, f := range dl.Removed {
		k := f.Key()
		if d.added[k] {
			delete(d.added, k)
		} else {
			d.removed[k] = true
		}
	}
	for _, f := range dl.Added {
		k := f.Key()
		if d.removed[k] {
			delete(d.removed, k)
		} else {
			d.added[k] = true
		}
	}
	if len(d.added)+len(d.removed) > sessionReanchorDrift {
		d.added, d.removed = map[string]bool{}, map[string]bool{}
		d.reanchors++
	}
}

// buildLive drives the session models into per-client op streams: an
// untimed warm-up that lasts until every session has re-anchored at least
// once, then timedOps ops per client. Sessions of one client are served
// round-robin.
func buildLive(name string, cfg liveConfig, seed int64, sessions []*liveSession, models []sessionModel) *liveWorkload {
	w := &liveWorkload{name: name, sessions: sessions}
	w.sizes = make([][]int, len(sessions))
	w.conflicts = make([][]int, len(sessions))
	w.violations = make([][]int, len(sessions))
	for t := 0; t < liveTenants; t++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(t)))
		cards := newDeck(cfg.mix)
		drift := make([]*driftTracker, sessionsPerTenant)
		for i := range drift {
			drift[i] = newDrift()
		}
		var ops []liveOp
		warm := -1
		for i := 0; warm < 0 || i < warm+cfg.timedOps; i++ {
			local := i % sessionsPerTenant
			si := t*sessionsPerTenant + local
			m := models[si]
			op := liveOp{kind: cards.deal(rng), sess: si}
			switch op.kind {
			case kApply, kPass:
				if op.kind == kApply {
					op.delta = m.relevantDelta(rng)
				} else {
					op.delta = m.passDelta(rng)
				}
				before := drift[local].reanchors
				drift[local].apply(op.delta)
				if warm >= 0 {
					w.timedReanchors += drift[local].reanchors - before
				}
				w.sizes[si] = append(w.sizes[si], m.size())
				w.conflicts[si] = append(w.conflicts[si], m.conflicts())
				w.violations[si] = append(w.violations[si], m.violations())
				op.body = mustJSON(wire.ApplyRequest{Delta: ptr(wire.FromDelta(op.delta))})
			case kQuery:
				op.query = m.certainQuery(rng)
				op.body = mustJSON(wire.QueryRequest{Query: op.query})
			case kPossible:
				op.query = m.possibleQuery(rng)
				op.body = mustJSON(wire.QueryRequest{Query: op.query, Semantics: "possible"})
			}
			ops = append(ops, op)
			if warm < 0 && local == sessionsPerTenant-1 {
				done := true
				for _, d := range drift {
					if d.reanchors == 0 {
						done = false
					}
				}
				if done {
					warm = len(ops)
				}
			}
		}
		w.clients = append(w.clients, ops)
		w.warm = append(w.warm, warm)
	}
	return w
}

func newLiveSession(tenant, name string, d *relational.Instance, set *constraint.Set, watch, watchName string) *liveSession {
	d.Freeze()
	inst := wire.FromInstance(d)
	return &liveSession{
		tenant:    tenant,
		name:      name,
		initial:   d,
		set:       set,
		watch:     watch,
		watchName: watchName,
		create: mustJSON(wire.CreateSessionRequest{
			Name:            name,
			Instance:        &inst,
			ConstraintsText: wire.FromConstraints(set).Source,
			Engine:          "auto",
		}),
		prepare: mustJSON(wire.PrepareRequest{Query: watch}),
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding %T: %v", v, err))
	}
	return b
}

func ptr[T any](v T) *T { return &v }

// indexSet is a set of ints with O(1) random pick, insert and delete.
type indexSet struct {
	items []int
	pos   map[int]int
}

func newIndexSet() *indexSet { return &indexSet{pos: map[int]int{}} }

func (s *indexSet) add(x int) {
	if _, ok := s.pos[x]; ok {
		return
	}
	s.pos[x] = len(s.items)
	s.items = append(s.items, x)
}

func (s *indexSet) del(x int) {
	i, ok := s.pos[x]
	if !ok {
		return
	}
	last := s.items[len(s.items)-1]
	s.items[i] = last
	s.pos[last] = i
	s.items = s.items[:len(s.items)-1]
	delete(s.pos, x)
}

func (s *indexSet) len() int { return len(s.items) }

func (s *indexSet) pick(rng *rand.Rand) int { return s.items[rng.Intn(len(s.items))] }

// pickExcept draws an element other than x (the set must hold another).
func (s *indexSet) pickExcept(rng *rand.Rand, x int) int {
	if _, ok := s.pos[x]; s.len() == 0 || ok && s.len() == 1 {
		panic("indexSet.pickExcept: no other element")
	}
	for {
		if y := s.pick(rng); y != x {
			return y
		}
	}
}

func sortedDelta(removed, added []relational.Fact) relational.Delta {
	relational.SortFacts(removed)
	relational.SortFacts(added)
	return relational.Delta{Removed: removed, Added: added}
}

func sortedStrings(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
