// Command perfbench is the repository benchmark: one closed-loop run of
// one workload over the public obj API (or, for modelcheck, over the
// sim/hicheck/linearize checker), with every response checked. With
// -trace 0 it prints the end-to-end metrics; with -trace 1 it measures
// the workload twice (histats off, then on, with benchmark-side spans)
// and replays recorded operations into each layer to print the
// per-layer metrics. The end-to-end figures are host-normalised against
// a calibration loop interleaved with the workload (calib.go). See
// README.md for the workloads and metrics.
//
//	go run . -workload set-read -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"hiconc/internal/histats"
	"hiconc/internal/obj"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads lists the workload names in BENCHMARK.json order.
var workloads = []string{"set-read", "map-zipf", "universal-map", "modelcheck"}

// extraWorkloads run like the others but are not in BENCHMARK.json:
// set-churn livelocks or overflows the stack in about one run in forty
// (a defect of the displacing hihash.Set, README.md), and a workload on
// which runs fail cannot gate a change.
var extraWorkloads = []string{"set-churn"}

// placements is how many hot-key placements one map run covers.
const placements = 32

// A set-up or a final check is a short single-goroutine task, and the
// machine stalls one now and then for a millisecond or more, so each is
// repeated at least minReps times and until its repetitions have taken
// options.repBudget, set-ups twice that (at most maxReps times); the
// figures are medians.
const (
	minReps = 5
	maxReps = 201
)

// more reports whether a task repeated reps times since start should
// run again.
func more(reps, least int, start time.Time, budget time.Duration) bool {
	return reps < least || (reps < maxReps && time.Since(start) < budget)
}

// options is one run's configuration. Tests shrink the sizes.
type options struct {
	workload  string
	seed      int64
	window    time.Duration
	trace     bool
	spansDir  string
	setupReps int           // least set-up repetitions; setup_s is their median
	repBudget time.Duration // time a set-up or final check is repeated for
	stream    int           // generated operations per client
	budget    int           // modelcheck replay budget
	minChecks int           // modelcheck: least checks; the verdict latencies use this many
	stall     time.Duration // how long past the window an operation may run
	suite     suiteConfig
	// wrapSet, when set, wraps the set under test (tests inject faults).
	wrapSet func(setTarget) setTarget
}

func defaultOptions() options {
	return options{
		setupReps: minReps,
		repBudget: 1500 * time.Millisecond,
		stream:    streamLength,
		budget:    mcBudget,
		minChecks: 5,
		stall:     10 * time.Second,
		suite:     defaultSuite,
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o := defaultOptions()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: set-read, map-zipf, universal-map, modelcheck or set-churn")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	seconds := fs.Int("seconds", 5, "measured window per pass, seconds")
	traceFlag := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end")
	fs.StringVar(&o.spansDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	o.window = time.Duration(*seconds) * time.Second
	o.trace = *traceFlag == 1
	if !known(o.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", o.workload, append(workloads, extraWorkloads...))
		return 2
	}
	res, err := execute(o, stdout)
	if err == nil && res.Failed > 0 {
		err = fmt.Errorf("%d of %d responses contradicted the oracle", res.Failed, res.Attempted)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		var stall *stallError
		if errors.As(err, &stall) {
			fmt.Fprintf(stderr, "goroutines at detection:\n%s\n", stall.stacks)
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func known(w string) bool {
	return slices.Contains(workloads, w) || slices.Contains(extraWorkloads, w)
}

// execute runs one workload in the mode o asks for and returns the
// result to print. An error means the run is not correct.
func execute(o options, stdout io.Writer) (result, error) {
	if !o.trace {
		e, err := measure(o, nil)
		res := e.result()
		printMetrics(stdout, o, e, res.Metrics)
		return res, err
	}
	plain, err := measure(o, nil)
	if err != nil {
		return plain.result(), err
	}
	tracers := make([]*tracer, clients+1)
	base := time.Now()
	for i := range tracers {
		tracers[i] = newTracer(base, int64(i)<<48)
	}
	rec := histats.Enable()
	traced, err := measure(o, tracers[:clients])
	histats.Disable()
	if err != nil {
		return traced.result(), err
	}
	layers, err := runSuite(o, tracers[clients], stdout)
	if err != nil {
		return result{Metrics: map[string]metric{}}, err
	}
	workCounts(layers, rec.Snapshot(), traced)
	layers["histats.trace_overhead"] = metric{traced.throughput / plain.throughput, "ratio"}
	layers["alloc_bytes_per_op"] = metric{plain.allocPerOp, "B/op"}
	layers["update_p50_ns"] = metric{plain.updateP50, "ns"}
	layers["update_p99_ns"] = metric{plain.updateP99, "ns"}
	layers["calib.slowdown"] = metric{plain.slowdown, "ratio"}
	path, n, err := writeSpans(o.spansDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed), tracers)
	if err != nil {
		return result{Metrics: map[string]metric{}}, err
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", n, path)
	printTable(stdout, layers)
	return result{
		Correct:   plain.failed+traced.failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   layers,
	}, nil
}

// e2e is one measured pass: the end-to-end figures and the counts the
// result line reports. The figures are host-normalised (calib.go); raw*
// are the same figures as measured, for people.
type e2e struct {
	attempted, failed int64
	writes            int64
	correct           bool
	throughput        float64
	lookupP50         float64
	lookupP99         float64
	updateP50         float64
	updateP99         float64
	updateMean        float64
	lookupN, updateN  int
	checkS, setupS    float64
	allocPerOp        float64
	rawThroughput     float64
	rawLookupP50      float64
	rawUpdateMean     float64
	rawCheckS         float64
	rawSetupS         float64
	slowdown          float64 // the calibration loop's median slowdown
	latSlowdown       float64 // the same for calibration ops timed alone
	// the final table: group or bucket count, bytes, live keys
	groups, tableBytes, live int
	note                     string
}

func (e e2e) result() result {
	return result{
		Correct:   e.correct && e.failed == 0,
		Attempted: max(e.attempted, 1),
		Failed:    e.failed,
		Metrics: map[string]metric{
			"throughput_ops_s": {e.throughput, "1/s"},
			"lookup_p50_ns":    {e.lookupP50, "ns"},
			"lookup_p99_ns":    {e.lookupP99, "ns"},
			"update_mean_ns":   {e.updateMean, "ns"},
			"check_s":          {e.checkS, "s"},
			"setup_s":          {e.setupS, "s"},
		},
	}
}

// timedSetups runs set-up at least o.setupReps times (see minReps),
// each between two calibration bursts, and returns the median of the
// normalised times, the median of the raw ones, and each set-up's
// slowdown.
func timedSetups(o options, cal *calTable, setup func() error) (norm, raw float64, slows []float64, err error) {
	var ns, rs []float64
	for r, start := 0, time.Now(); more(r, o.setupReps, start, 2*o.repBudget); r++ {
		var serr error
		secs, slow := paired(cal, func() { serr = setup() })
		if serr != nil {
			return 0, 0, nil, serr
		}
		rs = append(rs, secs)
		ns = append(ns, secs/slow)
		slows = append(slows, slow)
	}
	return median(ns), median(rs), slows, nil
}

// measure sets the workload up (o.setupReps times), runs one measured
// window, and checks the final state. tracers, when non-nil, receive
// spans.
func measure(o options, tracers []*tracer) (e2e, error) {
	if o.workload == "modelcheck" {
		return measureModelcheck(o, tracers)
	}
	cal := newCalTable(0xC0FFEE)
	var w *nativeRun
	var updMeans []float64 // set-read: each set-up's preload Inserts
	var updAll []uint32
	setupS, rawSetupS, slows, _ := timedSetups(o, cal, func() error {
		w = setupNative(o)
		updMeans = append(updMeans, mean(w.setupUpdates))
		updAll = append(updAll, w.setupUpdates...)
		return nil
	})
	ps, err := w.drive(o.window, o.stall, tracers)
	if err != nil {
		return e2e{}, err
	}
	e := e2e{
		attempted:     ps.attempted,
		failed:        ps.failed,
		writes:        ps.writes,
		throughput:    ps.throughput,
		lookupP50:     ps.lookupP50,
		lookupP99:     ps.lookupP99,
		updateP50:     ps.updateP50,
		updateP99:     ps.updateP99,
		updateMean:    ps.updateMean,
		lookupN:       ps.lookupSamples,
		updateN:       ps.updateSamples,
		setupS:        setupS,
		allocPerOp:    ps.allocPerOp,
		rawThroughput: ps.rawThroughput,
		rawLookupP50:  ps.rawLookupP50,
		rawUpdateMean: ps.rawUpdateMean,
		rawSetupS:     rawSetupS,
		slowdown:      ps.slowdown,
		latSlowdown:   ps.latSlowdown,
	}
	if ps.updateSamples == 0 && len(updAll) > 0 {
		// A read-only window: report the preload Inserts instead, one
		// sample each. The mean is the median of the set-ups' means,
		// each normalised by its set-up's slowdown.
		norm := make([]float64, len(updMeans))
		for r, m := range updMeans {
			norm[r] = m / slows[r]
		}
		e.updateN = len(updAll)
		e.rawUpdateMean, e.updateMean = median(updMeans), median(norm)
		s := median(slows)
		e.updateP50, e.updateP99 = quantile(updAll, 0.50)/s, quantile(updAll, 0.99)/s
		e.note = "updates: the preload Inserts timed during set-up"
	}
	// The final check is repeated (see minReps), each time between
	// calibration bursts; the first decides correctness. check_s is the
	// median of the normalised times.
	var checks, raws []float64
	var verr error
	for r, start := 0, time.Now(); more(r, 3*minReps, start, o.repBudget); r++ {
		var wrong int64
		var err error
		secs, slow := paired(cal, func() { wrong, err = w.verify() })
		checks = append(checks, secs/slow)
		raws = append(raws, secs)
		if r == 0 {
			e.failed += wrong
			verr = err
		}
	}
	e.checkS, e.rawCheckS = median(checks), median(raws)
	e.correct = verr == nil
	e.groups, e.tableBytes, e.live = w.table()
	e.note = strings.TrimPrefix(fmt.Sprintf("%s; table: %d groups or buckets, %d B over %d live keys, table_bytes_per_key %.4g",
		e.note, e.groups, e.tableBytes, e.live, float64(e.tableBytes)/float64(max(e.live, 1))), "; ")
	return e, verr
}

// setupNative builds the workload's generated inputs and a fresh object
// under test.
func setupNative(o options) *nativeRun {
	wrap := func(s setTarget) setTarget {
		if o.wrapSet != nil {
			return o.wrapSet(s)
		}
		return s
	}
	switch o.workload {
	case "set-churn":
		streams := churnStreams(o.seed, o.stream)
		return newChurnRun(wrap(obj.NewHashSetWithGroups(churnDomain, churnGroups)), streams)
	case "set-read":
		preload := readPreload(o.seed)
		streams := readStreams(o.seed, o.stream)
		return newReadRun(wrap(obj.NewHashSet(readDomain)), preload, streams)
	case "map-zipf":
		return newMapRun(hashMap{obj.NewHashMap(mapKeys)}, mapStreams(o.seed, o.stream), mapPerms(o.seed, placements), 16, "obj.HashMap")
	case "universal-map":
		return newMapRun(newShardedMap(), mapStreams(o.seed, o.stream), mapPerms(o.seed, placements), 4, "obj.ShardedMapHandle")
	}
	panic("perfbench: no native workload " + o.workload)
}

// measureModelcheck is measure for the checker workload: an operation is
// one explored trace, its read side the verdict on the trace, its
// update side the explorer's replay work that produced it.
func measureModelcheck(o options, tracers []*tracer) (e2e, error) {
	var k *checker
	setupS, rawSetupS, _, err := timedSetups(o, newCalTable(0xC0FFEE), func() error {
		var err error
		k, err = newChecker(o.budget)
		return err
	})
	if err != nil {
		return e2e{}, err
	}
	var tr *tracer
	if tracers != nil {
		tr = tracers[0]
	}
	st, err := k.drive(o.window, o.minChecks, tr)
	e := e2e{
		attempted: int64(st.traces),
		correct:   err == nil,
		setupS:    setupS,
		rawSetupS: rawSetupS,
		lookupN:   len(st.verdict),
		updateN:   len(st.explore),
		note:      "an operation is one explored trace",
	}
	if err != nil {
		e.failed = 1
		return e, err
	}
	// Per check, normalised by the slowdown the bursts inside it saw;
	// each figure is the median over checks. The verdict latencies are
	// per trace: every check explores the same traces in the same order,
	// so a trace's verdict time is the median of its normalised times in
	// the first o.minChecks checks, which leaves out the collections and
	// stalls that hit a different few traces in every check.
	var thr, check, u50, u99, um, rawThr, rawUm []float64
	var perTrace [][]float64 // per trace, its normalised times
	var perTraceRaw [][]float64
	for c := 0; c < st.checks; c++ {
		s, wall := st.slows[c], st.walls[c]
		end := len(st.verdict)
		if c+1 < st.checks {
			end = st.first[c+1]
		}
		verdict, explore := st.verdict[st.first[c]:end], st.explore[st.first[c]:end]
		rate := float64(st.perTraces[c]) / wall
		rawThr = append(rawThr, rate)
		thr = append(thr, rate*s)
		check = append(check, wall/s)
		if c == 0 {
			perTrace = make([][]float64, len(verdict))
			perTraceRaw = make([][]float64, len(verdict))
		}
		if len(verdict) != len(perTrace) {
			return e, fmt.Errorf("check %d explored %d traces, the first %d", c, len(verdict), len(perTrace))
		}
		for i, d := range verdict {
			if c >= max(o.minChecks, 1) {
				break
			}
			perTrace[i] = append(perTrace[i], float64(d)/s)
			perTraceRaw[i] = append(perTraceRaw[i], float64(d))
		}
		m := mean(explore)
		rawUm = append(rawUm, m)
		um = append(um, m/s)
		u50 = append(u50, quantile(explore, 0.50)/s)
		u99 = append(u99, quantile(explore, 0.99)/s)
	}
	verdicts := make([]float64, len(perTrace))
	raws := make([]float64, len(perTrace))
	for i := range perTrace {
		verdicts[i], raws[i] = median(perTrace[i]), median(perTraceRaw[i])
	}
	e.lookupP50, e.lookupP99 = floatQuantile(verdicts, 0.50), floatQuantile(verdicts, 0.99)
	e.rawLookupP50 = floatQuantile(raws, 0.50)
	e.throughput, e.rawThroughput = median(thr), median(rawThr)
	e.checkS, e.rawCheckS = median(check), median(st.walls)
	e.updateP50, e.updateP99 = median(u50), median(u99)
	e.updateMean, e.rawUpdateMean = median(um), median(rawUm)
	e.slowdown = median(st.slows)
	e.allocPerOp = float64(st.allocBytes) / float64(st.traces)
	return e, nil
}

// printMetrics prints the end-to-end figures with their units and
// sample counts, ahead of the result line.
func printMetrics(w io.Writer, o options, e e2e, ms map[string]metric) {
	if o.workload == "modelcheck" {
		fmt.Fprintf(w, "workload %s seed %d window %v, one checker goroutine\n", o.workload, o.seed, o.window)
	} else {
		fmt.Fprintf(w, "workload %s seed %d window %v, %d closed-loop clients\n", o.workload, o.seed, o.window, clients)
	}
	if e.note != "" {
		fmt.Fprintf(w, "note: %s\n", e.note)
	}
	fmt.Fprintf(w, "samples: lookup %d, update %d\n", e.lookupN, e.updateN)
	fmt.Fprintf(w, "update p50 %.1f ns, p99 %.1f ns\n", e.updateP50, e.updateP99)
	fmt.Fprintf(w, "calibration slowdown %.3f (timed alone %.3f); raw (unnormalised): throughput %.6g/s, lookup p50 %.1f ns, update mean %.1f ns, check %.4g s, setup %.4g s\n",
		e.slowdown, e.latSlowdown, e.rawThroughput, e.rawLookupP50, e.rawUpdateMean, e.rawCheckS, e.rawSetupS)
	fmt.Fprintf(w, "failed_op_share %.6g (%d of %d)\n", float64(e.failed)/float64(max(e.attempted, 1)), e.failed, e.attempted)
	printTable(w, ms)
}

func printTable(w io.Writer, ms map[string]metric) {
	for _, k := range sortedKeys(ms) {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
