package main

import (
	"fmt"
	"math/rand"

	"repro/internal/fdgen"
	"repro/internal/relational"
	"repro/internal/value"
)

// fdSize sizes one fd-live session.
type fdSize struct {
	rows      int // rows of the FD-constrained relation r0
	groupSize int
	sRows     int // rows of the unconstrained relation s
	watched   int // key groups read by the standing query
}

// fdLiveSize is the fd-live session size (see README.md, "Sizes").
var fdLiveSize = fdSize{rows: 8000, groupSize: 4, sRows: 1000, watched: 8}

// fdLiveMix is fd-live's client shape and op mix: write-heavy.
var fdLiveMix = liveConfig{
	mix: map[opKind]int{kApply: 12, kQuery: 3, kPossible: 2, kAnswers: 3},
}

const fdWatch = "watch(K, V) :- w(K), r0(K, V, I)."

// fdRow is one r0 row: r0(key, dep, id).
type fdRow struct {
	dep string
	id  int64
}

// fdPool is the conflicted and the clean key groups of one part of a
// session: the watched groups, or all the others.
type fdPool struct {
	conflicted, clean *indexSet
}

func newFDPool() fdPool { return fdPool{conflicted: newIndexSet(), clean: newIndexSet()} }

// fdModel is the generator state of one fd-live session: the rows of every
// key group and which groups are conflicted, among the watched groups and
// among the others. Every conflicted group is split 3-1 between two
// dependents.
type fdModel struct {
	keys           []string
	groups         [][]fdRow
	watched, other fdPool
	nextID         int64
	n              int // |D|, constant
	pairs          int // violating row pairs, constant
}

// groupConflicted reports whether a group's rows disagree on the dependent.
func groupConflicted(rows []fdRow) bool {
	for _, r := range rows[1:] {
		if r.dep != rows[0].dep {
			return true
		}
	}
	return false
}

// groupPairs counts a group's row pairs that disagree on the dependent,
// i.e. its FD violations.
func groupPairs(rows []fdRow) int {
	n := 0
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			if rows[i].dep != rows[j].dep {
				n++
			}
		}
	}
	return n
}

func fdFact(key string, r fdRow) relational.Fact {
	return relational.F("r0", value.Str(key), value.Str(r.dep), value.Int(r.id))
}

// genFDSession generates one fd-live session from internal/fdgen: one
// FD-constrained relation with an eighth of its key groups conflicted, the
// unconstrained relation s, and w facts marking the watched groups, half of
// them conflicted. fdgen splits a conflicted group 2-2; each is turned 3-1
// here, the shape relevantDelta keeps, so the violation count holds from the
// first op on.
func genFDSession(size fdSize, seed int64, tenant, name string) (*liveSession, *fdModel) {
	groups := size.rows / size.groupSize
	cfg := fdgen.Config{
		Relations:     1,
		Rows:          size.rows,
		GroupSize:     size.groupSize,
		Violations:    groups / 8,
		Classes:       2,
		Unconstrained: size.sRows,
		Seed:          seed,
	}
	d, set := fdgen.Generate(cfg)
	m := &fdModel{watched: newFDPool(), other: newFDPool()}
	keyIdx := map[string]int{}
	d.ForEach(func(f relational.Fact) bool {
		if f.Pred != "r0" {
			return true
		}
		k, _ := f.Args[0].AsStr()
		dep, _ := f.Args[1].AsStr()
		id, _ := f.Args[2].AsInt()
		gi, ok := keyIdx[k]
		if !ok {
			gi = len(m.keys)
			keyIdx[k] = gi
			m.keys = append(m.keys, k)
			m.groups = append(m.groups, nil)
		}
		m.groups[gi] = append(m.groups[gi], fdRow{dep: dep, id: id})
		if id >= m.nextID {
			m.nextID = id + 1
		}
		return true
	})
	var conflicted, clean []int
	for gi, rows := range m.groups {
		if !groupConflicted(rows) {
			clean = append(clean, gi)
			continue
		}
		conflicted = append(conflicted, gi)
		// Keep the last dissenting row; the others join rows[0]'s class.
		last := len(rows) - 1
		for rows[last].dep == rows[0].dep {
			last--
		}
		for ri := 1; ri < last; ri++ {
			if r := rows[ri]; r.dep != rows[0].dep {
				d.Delete(fdFact(m.keys[gi], r))
				rows[ri].dep = rows[0].dep
				d.Insert(fdFact(m.keys[gi], rows[ri]))
			}
		}
		m.pairs += groupPairs(rows)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x77a7c4))
	watched := map[int]bool{}
	for _, part := range []struct {
		from []int
		to   *indexSet
	}{{conflicted, m.watched.conflicted}, {clean, m.watched.clean}} {
		for part.to.len() < size.watched/2 {
			gi := part.from[rng.Intn(len(part.from))]
			if !watched[gi] {
				watched[gi] = true
				part.to.add(gi)
				d.Insert(relational.F("w", value.Str(m.keys[gi])))
			}
		}
	}
	for _, gi := range conflicted {
		if !watched[gi] {
			m.other.conflicted.add(gi)
		}
	}
	for _, gi := range clean {
		if !watched[gi] {
			m.other.clean.add(gi)
		}
	}
	m.n = d.Len()
	return newLiveSession(tenant, name, d, set, fdWatch, "watch"), m
}

// replace swaps row ri of group gi, which belongs to pool p, for a fresh
// row with dependent dep and returns the removed and added facts.
func (m *fdModel) replace(p fdPool, gi, ri int, dep string) (relational.Fact, relational.Fact) {
	old := m.groups[gi][ri]
	nr := fdRow{dep: dep, id: m.nextID}
	m.nextID++
	m.pairs -= groupPairs(m.groups[gi])
	m.groups[gi][ri] = nr
	m.pairs += groupPairs(m.groups[gi])
	if groupConflicted(m.groups[gi]) {
		p.clean.del(gi)
		p.conflicted.add(gi)
	} else {
		p.conflicted.del(gi)
		p.clean.add(gi)
	}
	return fdFact(m.keys[gi], old), fdFact(m.keys[gi], nr)
}

// relevantDelta emits two row replacements (four facts) in one pool, the
// watched groups half the time. The first heals a conflicted group: its
// one dissenting row takes the majority dependent. The second breaks a
// clean group 3-1. Per pool the conflicted group count, and overall the
// number of violating row pairs and |D|, are therefore exactly constant;
// in the watched pool both changes move the standing query's answers.
func (m *fdModel) relevantDelta(rng *rand.Rand) relational.Delta {
	p := m.other
	if rng.Intn(2) == 0 {
		p = m.watched
	}
	gi := p.conflicted.pick(rng)
	rows := m.groups[gi]
	count := map[string]int{}
	for _, r := range rows {
		count[r.dep]++
	}
	ri := 0
	for i, r := range rows {
		if count[r.dep] < count[rows[ri].dep] {
			ri = i
		}
	}
	major := rows[(ri+1)%len(rows)].dep
	r1, a1 := m.replace(p, gi, ri, major)

	gj := p.clean.pickExcept(rng, gi)
	rj := rng.Intn(len(m.groups[gj]))
	dep := "v1"
	if m.groups[gj][rj].dep == "v1" {
		dep = "v0"
	}
	r2, a2 := m.replace(p, gj, rj, dep)
	return sortedDelta([]relational.Fact{r1, r2}, []relational.Fact{a1, a2})
}

// passDelta is unused by fd-live (its mix has no passthrough applies).
func (m *fdModel) passDelta(*rand.Rand) relational.Delta {
	panic("fd-live has no passthrough applies")
}

// queryGroup draws a key group: conflicted half the time, so answers
// differ between the certain and possible semantics.
func (m *fdModel) queryGroup(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return m.keys[m.other.conflicted.pick(rng)]
	}
	return m.keys[rng.Intn(len(m.keys))]
}

// fdQuery renders one of the two decomposable query shapes over key group
// k: a projection of the group's dependents, or their join with s.
func fdQuery(rng *rand.Rand, k string) string {
	if rng.Intn(2) == 0 {
		return fmt.Sprintf("q(V) :- r0(%q, V, I).", k)
	}
	return fmt.Sprintf("q(V, W) :- r0(%q, V, I), s(%q, W).", k, k)
}

func (m *fdModel) certainQuery(rng *rand.Rand) string  { return fdQuery(rng, m.queryGroup(rng)) }
func (m *fdModel) possibleQuery(rng *rand.Rand) string { return fdQuery(rng, m.queryGroup(rng)) }
func (m *fdModel) size() int                           { return m.n }
func (m *fdModel) conflicts() int                      { return m.watched.conflicted.len() + m.other.conflicted.len() }
func (m *fdModel) violations() int                     { return m.pairs }

// genFDLive generates the fd-live workload.
func genFDLive(seed int64, size fdSize, cfg liveConfig) *liveWorkload {
	var sessions []*liveSession
	var models []sessionModel
	for t := 0; t < liveTenants; t++ {
		for s := 0; s < sessionsPerTenant; s++ {
			ls, m := genFDSession(size, seed*1000+int64(t*sessionsPerTenant+s), fmt.Sprintf("t%d", t), fmt.Sprintf("s%d", s))
			sessions = append(sessions, ls)
			models = append(models, m)
		}
	}
	w := buildLive("fd-live", cfg, seed, sessions, models)
	w.expect = newFDChecker
	return w
}
