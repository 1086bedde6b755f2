// Command cqabench is the repository's end-to-end benchmark. It generates
// its inputs from a seed, drives the system through its public entry
// points, checks every answer against an independent computation and
// prints every metric by name with its unit; the last line of its
// standard output is one JSON result object.
//
//	cqabench --workload fd-live|ric-live|program-oneshot --seed N --seconds S --trace 0|1
//
// The live workloads drive a real cqad (built from cmd/cqad, default
// flags) over loopback HTTP; program-oneshot calls the nullcqa one-shot
// facade in-process. --trace 1 adds an in-process replay of the same op
// stream that times the calls into each layer and prints the per-layer
// metrics instead of the end-to-end ones. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// Op rates of this benchmark's reference host (2 vCPU, Go 1.24), used only
// to size each run's fixed op count from --seconds; a run is never
// time-boxed.
const (
	fdLiveOpsPerSec  = 1100
	ricLiveOpsPerSec = 170
	oneshotOpsPerSec = 35
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("cqabench", flag.ContinueOnError)
	workload := fs.String("workload", "", "fd-live, ric-live or program-oneshot")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "run length the op count is sized to")
	traceMode := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced in-process replay")
	cqad := fs.String("cqad", ".bench_build/cqad", "cqad binary (live workloads)")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "where the traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "cqabench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	b := &bench{seed: *seed, seconds: *seconds, trace: *traceMode == 1, cqad: *cqad, traceDir: *traceDir}
	var err error
	switch *workload {
	case "fd-live":
		cfg := fdLiveMix
		cfg.timedOps = fdLiveOpsPerSec * *seconds / liveTenants
		err = b.live(genFDLive(*seed, fdLiveSize, cfg))
	case "ric-live":
		cfg := ricLiveMix
		cfg.timedOps = ricLiveOpsPerSec * *seconds / liveTenants
		err = b.live(genRICLive(*seed, ricLiveSize, cfg))
	case "program-oneshot":
		err = b.oneshot(genOneshot(*seed, oneshotDefault))
	default:
		err = fmt.Errorf("unknown --workload %q: want fd-live, ric-live or program-oneshot", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqabench:", err)
		return 1
	}
	return 0
}

type bench struct {
	seed     int64
	seconds  int
	trace    bool
	cqad     string
	traceDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units of every metric this benchmark prints besides the per-layer ones.
var units = map[string]string{
	"setup_s":                  "s",
	"throughput_ops_s":         "1/s",
	"cpu_ms_per_op":            "ms",
	"p50_ms":                   "ms",
	"tail_ms":                  "ms",
	"peak_rss_mb":              "MiB",
	"apply_p50_ms":             "ms",
	"apply_passthrough_p50_ms": "ms",
	"query_p50_ms":             "ms",
	"possible_p50_ms":          "ms",
	"answers_p50_ms":           "ms",
	"oneshot_p50_ms":           "ms",
	"error_rate":               "ratio",
	"tail_percentile":          "%",
	"tail_n":                   "count",
	"tail_all_ms":              "ms",
	"tail_all_percentile":      "%",
	"tail_all_n":               "count",
	"host.ref_ms":              "ms",
}

// endToEnd lists the gated metrics, printed by every workload with
// --trace 0.
var endToEnd = []string{"setup_s", "throughput_ops_s", "cpu_ms_per_op", "p50_ms", "tail_ms", "peak_rss_mb"}

// perLayer lists the metrics printed by every workload with --trace 1. A
// layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"parser.parse_ms", "ms"},
	{"parser.query_us", "us"},
	{"constraint.analyze_us", "us"},
	{"repairprog.build_ms", "ms"},
	{"repairprog.interpret_ms", "ms"},
	{"query.patch_ms", "ms"},
	{"ground.ground_ms", "ms"},
	{"ground.atoms", "count"},
	{"ground.rules", "count"},
	{"ground.alloc_objects", "count"},
	{"stable.solve_ms", "ms"},
	{"stable.first_model_ms", "ms"},
	{"stable.models", "count"},
	{"stable.repairs_per_model", "ratio"},
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"cqad.overhead_apply_us", "us"},
	{"cqad.overhead_apply_passthrough_us", "us"},
	{"cqad.overhead_query_us", "us"},
	{"cqad.overhead_possible_us", "us"},
	{"cqad.overhead_answers_us", "us"},
	{"session.apply_us", "us"},
	{"session.apply_passthrough_us", "us"},
	{"session.consistent_us", "us"},
	{"session.query_us", "us"},
	{"session.possible_us", "us"},
	{"session.answers_us", "us"},
	{"direct.delta_facts_per_apply", "count"},
	{"session.relevant_share", "ratio"},
	{"session.repair_reuse", "ratio"},
	{"session.reenumerations_per_apply", "ratio"},
	{"session.query_skip_ratio", "ratio"},
	{"repair.num_repairs", "count"},
	{"repair.states_per_repair", "ratio"},
	{"gc.cycles_per_kop", "count"},
	{"gc.pause_ms_per_kop", "ms"},
	{"gc.alloc_mb_per_kop", "MiB"},
	{"host.ref_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// emit prints the human-readable report lines, then the JSON result as the
// last line of standard output.
func emit(o outcome, report map[string]float64) {
	names := make([]string, 0, len(report))
	for n := range report {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		unit, ok := units[n]
		if !ok {
			unit = o.Metrics[n].Unit
		}
		fmt.Printf("metric %-34s %14.6g %s\n", n, report[n], unit)
	}
	b, err := json.Marshal(o)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// finishReport fills the metrics shared by every workload and, with
// --trace 0, copies the end-to-end ones into the result.
func (b *bench) finishReport(o *outcome, report map[string]float64, segs []segment, byKind map[opKind][]float64, refMS []float64) {
	segmentReport(report, segs)
	for k, xs := range byKind {
		report[k.String()+"_p50_ms"] = median(xs)
	}
	report["error_rate"] = float64(o.Failed) / float64(o.Attempted)
	report["host.ref_ms"] = median(refMS)
	if !b.trace {
		for _, n := range endToEnd {
			o.Metrics[n] = metric{report[n], units[n]}
		}
	}
}

// live runs a live workload: cqad over HTTP, then verification, then (with
// --trace 1) the in-process replays.
func (b *bench) live(w *liveWorkload) error {
	run, err := runLive(b.cqad, w)
	if err != nil {
		return err
	}
	o := outcome{Metrics: map[string]metric{}}
	report := map[string]float64{}

	// Timed-window latencies by op class.
	byKind := map[opKind][]float64{}
	for ci, ops := range w.clients {
		for j := w.warm[ci]; j < len(ops); j++ {
			byKind[ops[j].kind] = append(byKind[ops[j].kind], ms(run.results[ci][j].lat))
			o.Attempted++
		}
	}

	// Verification of every response, warm-up included.
	verifyStart := time.Now()
	var failedWarm int
	o.Failed, failedWarm, err = verifyLive(w, run)
	if err != nil {
		return err
	}
	if run.exited {
		fmt.Fprintln(os.Stderr, "cqabench: cqad exited during the run")
	}
	o.Correct = !run.exited && o.Failed == 0 && failedWarm == 0
	fmt.Fprintf(os.Stderr, "cqabench: %s: warm-up %d ops in %.1fs, timed %d ops (%d re-anchors) in %.1fs, verified in %.1fs\n",
		w.name, w.ops()-o.Attempted, run.warmWall.Seconds(), o.Attempted, w.timedReanchors, totalWall(run.segs).Seconds(), time.Since(verifyStart).Seconds())

	var setups []float64
	for _, s := range run.setups {
		setups = append(setups, s.Seconds())
	}
	report["setup_s"] = median(setups)
	report["peak_rss_mb"] = run.rssMB
	b.finishReport(&o, report, run.segs, byKind, run.refMS)
	if !b.trace {
		emit(o, report)
		return nil
	}

	layer, ok, err := b.traceLive(w, run, report)
	if err != nil {
		return err
	}
	o.Correct = o.Correct && ok
	o.setLayers(report, layer)
	emit(o, report)
	return nil
}

// setLayers puts every per-layer metric into the result (0 where the
// workload does not exercise the layer) and the report.
func (o *outcome) setLayers(report, layer map[string]float64) {
	layer["host.ref_ms"] = report["host.ref_ms"]
	for _, pl := range perLayer {
		o.Metrics[pl.name] = metric{layer[pl.name], pl.unit}
		report[pl.name] = layer[pl.name]
	}
}

// sameResponses counts the responses (prepares included) where an
// in-process replay and the daemon's run differ byte for byte, reporting
// the first few.
func sameResponses(w *liveWorkload, run *liveRun, rep *replayOut) int {
	mismatches := 0
	report := func(what string, daemon, replay []byte) {
		if mismatches++; mismatches <= 3 {
			fmt.Fprintf(os.Stderr, "cqabench: traced replay differs on %s:\n  daemon %s\n  replay %s\n", what, truncate(daemon), truncate(replay))
		}
	}
	for i, r := range run.preps {
		if !bytes.Equal(r.body, rep.preps[i]) {
			report(fmt.Sprintf("prepare of session %d", i), r.body, rep.preps[i])
		}
	}
	for ci, ops := range w.clients {
		for j := range ops {
			if r := run.results[ci][j]; !bytes.Equal(r.body, rep.bodies[ci][j]) {
				report(fmt.Sprintf("client %d op %d (%s)", ci, j, ops[j].kind), r.body, rep.bodies[ci][j])
			}
		}
	}
	return mismatches
}

// traceLive replays the op stream in-process twice, untraced then traced,
// and derives the per-layer metrics. ok is false when the traced replay's
// responses differ from the daemon's.
func (b *bench) traceLive(w *liveWorkload, run *liveRun, e2e map[string]float64) (map[string]float64, bool, error) {
	m := map[string]float64{}
	g0 := readGC()
	t0 := time.Now()
	if _, err := replayLive(w, false); err != nil {
		return nil, false, err
	}
	untraced := time.Since(t0)
	gcPerKop(m, g0, readGC(), w.ops())

	t0 = time.Now()
	rep, err := replayLive(w, true)
	if err != nil {
		return nil, false, err
	}
	traced := time.Since(t0)
	c := rep.counters
	m["trace.overhead_pct"] = (traced.Seconds()/untraced.Seconds() - 1) * 100
	if err := writeSpans(b.traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, b.seed), rep.tracers); err != nil {
		return nil, false, err
	}
	ok := sameResponses(w, run, rep) == 0

	// Per-op span sums by op class over the timed window; "served" is the
	// time an op spent in the layers below cqad's HTTP handling.
	spanByKind := map[opKind]map[string][]float64{}
	for ci, ops := range w.clients {
		per := rep.tracers[ci].perOp(len(ops))
		for j := w.warm[ci]; j < len(ops); j++ {
			k := ops[j].kind
			if spanByKind[k] == nil {
				spanByKind[k] = map[string][]float64{}
			}
			var served time.Duration
			for name, d := range per[j] {
				spanByKind[k][name] = append(spanByKind[k][name], us(d))
				if name != "op."+k.String() {
					served += d
				}
			}
			spanByKind[k]["served"] = append(spanByKind[k]["served"], us(served))
		}
	}
	all := func(name string, kinds ...opKind) []float64 {
		var xs []float64
		for _, k := range kinds {
			xs = append(xs, spanByKind[k][name]...)
		}
		return xs
	}
	m["parser.query_us"] = median(all("parser.query", kQuery, kPossible))
	m["wire.decode_us"] = median(all("wire.decode", kApply, kPass, kQuery, kPossible))
	m["wire.encode_us"] = median(all("wire.encode", kApply, kPass, kQuery, kPossible, kAnswers))
	m["session.apply_us"] = median(all("session.apply", kApply))
	m["session.apply_passthrough_us"] = median(all("session.apply", kPass))
	m["session.consistent_us"] = median(all("session.consistent", kApply, kPass))
	m["session.query_us"] = median(all("session.query", kQuery))
	m["session.possible_us"] = median(all("session.possible", kPossible))
	m["session.answers_us"] = median(all("session.answers", kAnswers))
	for k := kApply; k <= kAnswers; k++ {
		if p50, ok := e2e[k.String()+"_p50_ms"]; ok {
			m["cqad.overhead_"+k.String()+"_us"] = p50*1000 - median(spanByKind[k]["served"])
		}
	}
	if c.applies > 0 {
		m["direct.delta_facts_per_apply"] = float64(c.deltaFacts) / float64(c.applies)
		m["session.relevant_share"] = float64(c.relevant) / float64(c.applies)
		m["session.reenumerations_per_apply"] = float64(c.reenumerated) / float64(c.applies)
	}
	if c.survived+c.invalidated > 0 {
		m["session.repair_reuse"] = float64(c.survived) / float64(c.survived+c.invalidated)
	}
	if c.refreshed+c.skipped > 0 {
		m["session.query_skip_ratio"] = float64(c.skipped) / float64(c.refreshed+c.skipped)
	}
	m["repair.num_repairs"] = median(c.numRepairs)
	m["repair.states_per_repair"] = median(c.statesPerRepair)
	return m, ok, nil
}

// oneshot runs program-oneshot: a cold first pass (set-up), timed passes,
// verification against the search engine, and with --trace 1 the composed
// per-layer replay.
func (b *bench) oneshot(cycle []oneshotInput) error {
	passes := int(math.Round(float64(oneshotOpsPerSec*b.seconds) / float64(len(cycle))))
	if passes < 1 {
		passes = 1
	}
	run := runOneshotLoop(cycle, passes)
	o := outcome{Correct: true, Attempted: len(run.answers), Metrics: map[string]metric{}}
	report := map[string]float64{}

	want := make([]oneshotAnswer, len(cycle))
	for i, in := range cycle {
		want[i] = answerOneshot(in, searchOpts)
	}
	for i, a := range run.answers {
		if err := a.matches(want[i%len(cycle)]); err != nil {
			o.Failed++
			if o.Failed <= 5 {
				fmt.Fprintf(os.Stderr, "cqabench: op %d (%s input %d): %v\n", i, cycle[i%len(cycle)].shape, i%len(cycle), err)
			}
		}
	}
	o.Correct = o.Failed == 0

	var lats []float64
	for _, s := range run.segs {
		lats = append(lats, s.lats...)
	}
	report["setup_s"] = run.setup.Seconds()
	report["peak_rss_mb"] = run.rssMB
	b.finishReport(&o, report, run.segs, map[opKind][]float64{kOneshot: lats}, run.refMS)
	if !b.trace {
		emit(o, report)
		return nil
	}

	m := map[string]float64{}
	gcPerKop(m, run.gc0, run.gc1, o.Attempted)
	var (
		parse, analyze, build, interp, patch, ground, solve, first []float64
		atoms, rules, allocs, models, perModel                     []float64
	)
	t0 := time.Now()
	tr := newTracer(t0)
	for p := 0; p < passes; p++ {
		for i, in := range cycle {
			tr.setOp(p*len(cycle) + i)
			n0 := len(tr.spans)
			a, lc, err := replayOneshot(tr, in)
			if err == nil {
				err = a.matches(want[i])
			}
			if err != nil {
				o.Correct = false
				fmt.Fprintf(os.Stderr, "cqabench: traced replay of input %d: %v\n", i, err)
			}
			sum := map[string]time.Duration{}
			var interpInSolve time.Duration
			for _, s := range tr.spans[n0:] {
				sum[s.name] += s.end - s.start
				if s.name == "repairprog.interpret" && s.parent >= 0 && tr.spans[s.parent].name == "stable.solve" {
					interpInSolve += s.end - s.start
				}
			}
			parse = append(parse, ms(sum["parser.parse"]))
			analyze = append(analyze, us(sum["constraint.analyze"]))
			build = append(build, ms(sum["repairprog.build"]))
			interp = append(interp, ms(sum["repairprog.interpret"]))
			patch = append(patch, ms(sum["query.patch"]))
			ground = append(ground, ms(sum["ground.ground"]))
			solve = append(solve, ms(sum["stable.solve"]-interpInSolve))
			first = append(first, ms(lc.firstModel))
			atoms, rules, allocs = append(atoms, lc.atoms), append(rules, lc.rules), append(allocs, lc.allocs)
			models = append(models, lc.models)
			if lc.models > 0 {
				perModel = append(perModel, lc.repairs/lc.models)
			}
		}
	}
	traced := time.Since(t0)
	m["trace.overhead_pct"] = (traced.Seconds()/totalWall(run.segs).Seconds() - 1) * 100
	if err := writeSpans(b.traceDir, fmt.Sprintf("program-oneshot-seed%d.jsonl", b.seed), []*tracer{tr}); err != nil {
		return err
	}
	m["parser.parse_ms"] = median(parse)
	m["constraint.analyze_us"] = median(analyze)
	m["repairprog.build_ms"] = median(build)
	m["repairprog.interpret_ms"] = median(interp)
	m["query.patch_ms"] = median(patch)
	m["ground.ground_ms"] = median(ground)
	m["ground.atoms"] = median(atoms)
	m["ground.rules"] = median(rules)
	m["ground.alloc_objects"] = median(allocs)
	m["stable.solve_ms"] = median(solve)
	m["stable.first_model_ms"] = median(first)
	m["stable.models"] = median(models)
	m["stable.repairs_per_model"] = median(perModel)
	o.setLayers(report, m)
	emit(o, report)
	return nil
}
