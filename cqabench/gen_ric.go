package main

import (
	"fmt"
	"math/rand"

	"repro/internal/parser"
	"repro/internal/relational"
	"repro/internal/value"
)

// ricSize sizes one ric-live session.
type ricSize struct {
	emps, depts, projs int
	fdViol, ricViol    int
}

// ricLiveSize: 3 key conflicts and 3 dangling foreign keys give 2^6 = 64
// repairs per session (see README.md, "Sizes").
var ricLiveSize = ricSize{emps: 2000, depts: 50, projs: 500, fdViol: 3, ricViol: 3}

// ricLiveMix is ric-live's client shape and op mix: read-heavy, with the
// applies split evenly between constraint-relevant and passthrough.
var ricLiveMix = liveConfig{
	mix: map[opKind]int{kApply: 3, kPass: 3, kQuery: 6, kPossible: 3, kAnswers: 5},
}

// ricICs: a key FD on emp, a foreign key emp.D → dept (repaired by
// deleting the employee or inserting a dept row with a null manager), and a
// NOT NULL constraint on dept's key.
const ricICs = `emp(E, D, S), emp(E, D2, S2) -> D = D2.
emp(E, D, S) -> dept(D, M).
dept(D, M), isnull(D) -> false.
`

const ricWatch = `watch(E) :- emp(E, D, S), dept(D, "m0").`

type empRow struct {
	e, d string
	s    int64
}

func (r empRow) fact() relational.Fact {
	return relational.F("emp", value.Str(r.e), value.Str(r.d), value.Int(r.s))
}

// ricModel is the generator state of one ric-live session.
type ricModel struct {
	depts    int
	clean    []empRow    // employees with one row and a valid dept
	pairs    [][2]empRow // key conflicts
	dangling []empRow    // rows whose dept does not exist
	projs    []relational.Fact
	nextID   int
	n        int
}

func (m *ricModel) freshEmp() string {
	m.nextID++
	return fmt.Sprintf("e%d", m.nextID)
}

func (m *ricModel) dept(rng *rand.Rand) string { return fmt.Sprintf("d%d", rng.Intn(m.depts)) }

func genRICSession(size ricSize, seed int64, tenant, name string) (*liveSession, *ricModel) {
	rng := rand.New(rand.NewSource(seed))
	m := &ricModel{depts: size.depts}
	d := relational.NewInstance()
	for i := 0; i < size.depts; i++ {
		d.Insert(relational.F("dept", value.Str(fmt.Sprintf("d%d", i)), value.Str(fmt.Sprintf("m%d", i%10))))
	}
	for i := 0; i < size.emps; i++ {
		r := empRow{e: m.freshEmp(), d: m.dept(rng), s: int64(1 + rng.Intn(100))}
		m.clean = append(m.clean, r)
		d.Insert(r.fact())
	}
	for i := 0; i < size.fdViol; i++ {
		m.pairs = append(m.pairs, m.newPair(rng))
	}
	for i := 0; i < size.ricViol; i++ {
		m.dangling = append(m.dangling, m.newDangling(rng))
	}
	for _, p := range m.pairs {
		d.Insert(p[0].fact())
		d.Insert(p[1].fact())
	}
	for _, r := range m.dangling {
		d.Insert(r.fact())
	}
	for i := 0; i < size.projs; i++ {
		f := m.newProj(rng)
		m.projs = append(m.projs, f)
		d.Insert(f)
	}
	m.n = d.Len()
	set := parser.MustConstraints(ricICs)
	return newLiveSession(tenant, name, d, set, ricWatch, "watch"), m
}

// newPair turns a random clean employee into a key conflict: its row plus
// a second row with another dept.
func (m *ricModel) newPair(rng *rand.Rand) [2]empRow {
	i := rng.Intn(len(m.clean))
	a := m.clean[i]
	m.clean[i] = m.clean[len(m.clean)-1]
	m.clean = m.clean[:len(m.clean)-1]
	b := empRow{e: a.e, d: m.dept(rng), s: int64(1 + rng.Intn(100))}
	for b.d == a.d {
		b.d = m.dept(rng)
	}
	return [2]empRow{a, b}
}

func (m *ricModel) newDangling(rng *rand.Rand) empRow {
	e := m.freshEmp()
	return empRow{e: e, d: "x" + e, s: int64(1 + rng.Intn(100))}
}

func (m *ricModel) newProj(rng *rand.Rand) relational.Fact {
	m.nextID++
	e := m.clean[rng.Intn(len(m.clean))].e
	return relational.F("proj", value.Str(e), value.Str(fmt.Sprintf("p%d", m.nextID)))
}

// relevantDelta moves one row of one of three kinds, two facts each, so
// |D| and both violation counts stay exactly constant:
//   - a clean employee is replaced by a fresh one in the same dept;
//   - a key conflict moves: one row of a conflicting pair is deleted and a
//     clean employee gains a conflicting second row;
//   - a dangling foreign key moves to a fresh employee and fresh dept.
func (m *ricModel) relevantDelta(rng *rand.Rand) relational.Delta {
	switch rng.Intn(3) {
	case 0:
		i := rng.Intn(len(m.clean))
		old := m.clean[i]
		nr := empRow{e: m.freshEmp(), d: old.d, s: old.s}
		m.clean[i] = nr
		return sortedDelta([]relational.Fact{old.fact()}, []relational.Fact{nr.fact()})
	case 1:
		i := rng.Intn(len(m.pairs))
		old := m.pairs[i]
		keep := rng.Intn(2)
		np := m.newPair(rng)
		m.clean = append(m.clean, old[keep])
		m.pairs[i] = np
		return sortedDelta([]relational.Fact{old[1-keep].fact()}, []relational.Fact{np[1].fact()})
	default:
		i := rng.Intn(len(m.dangling))
		old := m.dangling[i]
		nr := m.newDangling(rng)
		m.dangling[i] = nr
		return sortedDelta([]relational.Fact{old.fact()}, []relational.Fact{nr.fact()})
	}
}

// passDelta replaces one proj fact, an unconstrained relation.
func (m *ricModel) passDelta(rng *rand.Rand) relational.Delta {
	i := rng.Intn(len(m.projs))
	old := m.projs[i]
	nf := m.newProj(rng)
	m.projs[i] = nf
	return sortedDelta([]relational.Fact{old}, []relational.Fact{nf})
}

// certainQuery selects one dept's employees, alone or joined with proj.
func (m *ricModel) certainQuery(rng *rand.Rand) string {
	d := m.dept(rng)
	if rng.Intn(2) == 0 {
		return fmt.Sprintf("q(E, S) :- emp(E, %q, S).", d)
	}
	return fmt.Sprintf("q(E, P) :- emp(E, %q, S), proj(E, P).", d)
}

// possibleQuery asks where one employee works: a conflicted or dangling
// one half the time.
func (m *ricModel) possibleQuery(rng *rand.Rand) string {
	var e string
	switch rng.Intn(4) {
	case 0:
		e = m.pairs[rng.Intn(len(m.pairs))][0].e
	case 1:
		e = m.dangling[rng.Intn(len(m.dangling))].e
	default:
		e = m.clean[rng.Intn(len(m.clean))].e
	}
	return fmt.Sprintf("p(D, M) :- emp(%q, D, S), dept(D, M).", e)
}

func (m *ricModel) size() int      { return m.n }
func (m *ricModel) conflicts() int { return len(m.pairs) + len(m.dangling) }

// violations: each key conflict is one violating pair, each dangling
// reference one foreign-key violation.
func (m *ricModel) violations() int { return m.conflicts() }

// genRICLive generates the ric-live workload.
func genRICLive(seed int64, size ricSize, cfg liveConfig) *liveWorkload {
	var sessions []*liveSession
	var models []sessionModel
	for t := 0; t < liveTenants; t++ {
		for s := 0; s < sessionsPerTenant; s++ {
			ls, m := genRICSession(size, seed*1000+int64(t*sessionsPerTenant+s), fmt.Sprintf("t%d", t), fmt.Sprintf("s%d", s))
			sessions = append(sessions, ls)
			models = append(models, m)
		}
	}
	w := buildLive("ric-live", cfg, seed, sessions, models)
	w.expect = newScratchChecker
	return w
}
