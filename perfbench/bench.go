package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"commguard/internal/apps"
	"commguard/internal/campaign"
	"commguard/internal/sim"
)

// seedRotation is how many fault-injection seeds a run rotates through:
// round r uses seed r mod seedRotation, so every seed recurs and each
// revisit must reproduce the first visit bit for bit.
const seedRotation = 4

// traceEventsPerCore sizes the event rings of traced jobs. The rings only
// need to exist (their cost is part of the tracing overhead); nothing
// reads them, so they are kept small.
const traceEventsPerCore = 1 << 12

// jobTimeout arms the sweep campaign's per-job watchdog; a healthy job
// takes well under a second.
const jobTimeout = 30 * time.Second

// bench holds one run's state: the seed list, the error-free references
// built in set-up, the first-visit record of every faulty job, and
// the spans of traced rounds.
type bench struct {
	outDir string
	seed   int64
	seeds  []int64
	refs   map[string]*reference

	mu     sync.Mutex
	visits map[jobSpec]visit
	spans  []span
	nextID int64

	// corrupt and tamperJournal, when set, damage a job's output before
	// it is checked and a campaign journal before it is reopened (the
	// self-test's negative controls).
	corrupt       func(spec jobSpec, out []float64)
	tamperJournal func(path string) error
}

// reference is an app's error-free output and the counts every error-free
// run of it must reproduce.
type reference struct {
	out          []float64
	instructions uint64
	iterations   int
	edges        int
	// sink is the sink node's ID, sinkRate its pop rate and sinkFirings
	// its error-free firing count; fixedLength marks an output rebuilt to
	// a fixed size whatever the sink collected.
	sink, sinkRate int
	sinkFirings    uint64
	fixedLength    bool
}

// visit is what a faulty job's revisit must reproduce.
type visit struct {
	digest   uint64
	counters string
}

// span is one timed call into a layer, relative to process start.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newBench(outDir string, seed int64) *bench {
	b := &bench{outDir: outDir, seed: seed, refs: map[string]*reference{}, visits: map[jobSpec]visit{}}
	for k := int64(0); k < seedRotation; k++ {
		b.seeds = append(b.seeds, seed*1000+k+1)
	}
	return b
}

// close removes the run's scratch journals.
func (b *bench) close() {
	_ = os.RemoveAll(filepath.Join(b.outDir, "journals"))
}

func (b *bench) roundSeed(r int) int64 { return b.seeds[r%len(b.seeds)] }

// setup builds and checks every error-free reference of the workload,
// then runs one untimed warm-up round.
func (b *bench) setup(w *workload) error {
	for _, app := range w.apps {
		ref, err := b.buildReference(app)
		if err != nil {
			return fmt.Errorf("%s reference: %w", app, err)
		}
		b.refs[app] = ref
	}
	rs, err := b.round(w, 0, false)
	if err != nil {
		return fmt.Errorf("warm-up round: %w", err)
	}
	if len(rs.errs) > 0 {
		return fmt.Errorf("warm-up round: %w", rs.errs[0])
	}
	return nil
}

// jobStats is one job's measured outcome.
type jobStats struct {
	spec              jobSpec
	start             time.Time
	build, run, check time.Duration
	instructions      uint64
	guardOps          uint64
	faults            uint64
	quality           float64
	layer             *layerSample
	err               error
}

// roundStats is one round's measured outcome.
type roundStats struct {
	wall              time.Duration
	attempted, failed int
	errs              []error
	instructions      uint64
	guardOps          uint64
	guardInstructions uint64
	faults            uint64
	jobs              []jobStats
	workers           int
	// journalGaps are the pool's per-job hand-off times (campaign rounds
	// only): from a job's return to the next job's start, which spans the
	// runner's result marshal and fsync'd Journal.Append.
	journalGaps []time.Duration
}

// round runs round r of the workload.
func (b *bench) round(w *workload, r int, traced bool) (roundStats, error) {
	specs := w.jobs(b, r)
	var rs roundStats
	var err error
	var roundID int64
	if traced {
		roundID = b.newID()
	}
	start := time.Now()
	if w.campaign {
		rs, err = b.campaignRound(specs, b.roundSeed(r), traced, roundID)
	} else {
		rs.workers = 1
		for _, spec := range specs {
			rs.jobs = append(rs.jobs, b.runJob(spec, traced, nil, roundID))
		}
	}
	rs.wall = time.Since(start)
	if err != nil {
		return rs, err
	}
	if traced {
		b.addSpan(span{ID: roundID, Name: "round", Start: b.since(start), End: b.since(start.Add(rs.wall))})
	}
	for _, j := range rs.jobs {
		rs.attempted++
		rs.instructions += j.instructions
		rs.faults += j.faults
		if j.spec.protection == sim.CommGuard {
			rs.guardOps += j.guardOps
			rs.guardInstructions += j.instructions
		}
		if j.err != nil {
			rs.failed++
			rs.errs = append(rs.errs, j.err)
		}
	}
	// Faulty workloads must inject: a round whose jobs all ran clean would
	// measure nothing of the fault paths.
	if specs[0].mtbe > 0 && rs.faults == 0 {
		rs.errs = append(rs.errs, fmt.Errorf("round %d injected no faults", r))
	}
	return rs, nil
}

// runJob builds one instance, runs it and checks the output.
func (b *bench) runJob(spec jobSpec, traced bool, cancel <-chan struct{}, parent int64) jobStats {
	js := jobStats{spec: spec, start: time.Now()}
	ref := b.refs[spec.app]
	builder, _ := apps.ByName(spec.app)
	inst, err := builder.New()
	js.build = time.Since(js.start)
	if err != nil {
		js.err = fmt.Errorf("%s build: %w", spec.app, err)
		return js
	}
	cfg := sim.Config{
		Protection: spec.protection,
		MTBE:       spec.mtbe,
		Seed:       spec.seed,
		Sequential: true,
		Cancel:     cancel,
		Health:     traced,
	}
	if traced {
		cfg.TraceEvents = traceEventsPerCore
	}
	var score []float64
	if spec.mtbe > 0 {
		score = ref.out // faulty jobs are scored against the error-free run
	}
	res, err := sim.Run(inst, cfg, score)
	js.run = time.Since(js.start) - js.build
	if err != nil {
		js.err = fmt.Errorf("%s run: %w", describe(spec), err)
		return js
	}
	js.instructions = res.Run.TotalInstructions()
	js.quality = res.Quality
	for _, c := range res.Run.Cores {
		js.faults += c.Errors.Total()
	}
	if res.Guard != nil {
		js.guardOps = res.Guard.Ops.Total() + res.Run.QueueTotals().PointerECCOps
	}
	if b.corrupt != nil {
		b.corrupt(spec, res.Output)
	}
	if spec.mtbe > 0 {
		js.err = b.checkFaulty(spec, res, ref)
	} else {
		js.err = checkErrorFree(res, ref)
	}
	if js.err != nil {
		js.err = fmt.Errorf("%s: %w", describe(spec), js.err)
	}
	js.check = time.Since(js.start) - js.build - js.run
	if traced {
		js.layer = sampleLayers(res)
		id := b.newID()
		t0 := b.since(js.start)
		t1 := t0 + js.build.Nanoseconds()
		t2 := t1 + js.run.Nanoseconds()
		t3 := t2 + js.check.Nanoseconds()
		b.addSpan(span{ID: id, Parent: parent, Name: "job " + describe(spec), Start: t0, End: t3})
		b.addSpan(span{ID: b.newID(), Parent: id, Name: "apps.Builder.New", Start: t0, End: t1})
		b.addSpan(span{ID: b.newID(), Parent: id, Name: "sim.Run", Start: t1, End: t2})
		b.addSpan(span{ID: b.newID(), Parent: id, Name: "check", Start: t2, End: t3})
	}
	return js
}

func describe(s jobSpec) string {
	d := fmt.Sprintf("%s/%s", s.app, s.protection)
	if s.mtbe > 0 {
		d += fmt.Sprintf("/mtbe=%g/seed=%d", s.mtbe, s.seed)
	}
	return d
}

// sweepResult is the journaled payload of one campaign job.
type sweepResult struct {
	Quality campaign.Float `json:"quality"`
	Faults  uint64         `json:"faults"`
}

// campaignRound runs one sweep lattice through campaign.Runner with a
// fresh fsync'd journal and the watchdog armed, then reopens the journal
// and checks it holds exactly the lattice's keys.
func (b *bench) campaignRound(specs []jobSpec, seed int64, traced bool, roundID int64) (roundStats, error) {
	rs := roundStats{workers: runtime.NumCPU()}
	base := filepath.Join(b.outDir, "journals")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return rs, err
	}
	dir, err := os.MkdirTemp(base, "round-")
	if err != nil {
		return rs, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "journal.jsonl")
	jr, err := campaign.Open(path, false)
	if err != nil {
		return rs, err
	}
	lattice := sweepAxes(seed).Expand()
	stats := make([]jobStats, len(lattice))
	ends := make([]time.Time, len(lattice))
	tasks := make([]campaign.Task, len(lattice))
	var mu sync.Mutex
	for i := range lattice {
		i := i
		tasks[i] = campaign.Task{
			Job: lattice[i],
			Run: func(cancel <-chan struct{}) (any, error) {
				js := b.runJob(specs[i], traced, cancel, roundID)
				mu.Lock()
				stats[i] = js
				ends[i] = time.Now()
				mu.Unlock()
				return sweepResult{Quality: campaign.Float(js.quality), Faults: js.faults}, nil
			},
		}
	}
	runner := &campaign.Runner{
		Parallel:   rs.workers,
		JobTimeout: jobTimeout,
		Retries:    1,
		Journal:    jr,
	}
	runErr := runner.Run(tasks)
	if cerr := jr.Close(); runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		return rs, fmt.Errorf("campaign: %w", runErr)
	}
	mu.Lock()
	rs.jobs = stats
	rs.journalGaps = handoffGaps(stats, ends, rs.workers)
	mu.Unlock()
	if b.tamperJournal != nil {
		if err := b.tamperJournal(path); err != nil {
			return rs, err
		}
	}
	if err := checkJournal(path, lattice); err != nil {
		rs.errs = append(rs.errs, err)
	}
	return rs, nil
}

// handoffGaps pairs each job's return with the next job start that
// follows it (a worker claims its next job right after journaling the
// last), skipping the final job of each worker.
func handoffGaps(stats []jobStats, ends []time.Time, workers int) []time.Duration {
	starts := make([]time.Time, len(stats))
	for i, s := range stats {
		starts[i] = s.start
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].Before(starts[j]) })
	sorted := append([]time.Time(nil), ends...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Before(sorted[j]) })
	var gaps []time.Duration
	next := workers // the first `workers` starts begin the pool
	for _, e := range sorted {
		for next < len(starts) && starts[next].Before(e) {
			next++
		}
		if next == len(starts) {
			break
		}
		gaps = append(gaps, starts[next].Sub(e))
		next++
	}
	return gaps
}

// checkJournal reopens the round's journal with resume and checks that it
// holds exactly the lattice's keys, each on one line.
func checkJournal(path string, lattice []campaign.Job) error {
	jr, err := campaign.Open(path, true)
	if err != nil {
		return fmt.Errorf("journal reopen: %w", err)
	}
	keys := jr.Keys()
	if err := jr.Close(); err != nil {
		return fmt.Errorf("journal close: %w", err)
	}
	want := map[string]bool{}
	for _, j := range lattice {
		want[j.Key()] = true
	}
	got := map[string]bool{}
	for _, k := range keys {
		if !want[k] {
			return fmt.Errorf("journal holds key %s outside the lattice", k)
		}
		got[k] = true
	}
	if len(got) != len(want) {
		return fmt.Errorf("journal holds %d of the lattice's %d keys", len(got), len(want))
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	lines := 0
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var rec campaign.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("journal line %d: %w", lines+1, err)
		}
		if seen[rec.Key] {
			return fmt.Errorf("journal holds %s twice", rec.Key)
		}
		seen[rec.Key] = true
		lines++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if lines != len(want) {
		return fmt.Errorf("journal has %d records, lattice %d jobs", lines, len(want))
	}
	return nil
}

func (b *bench) newID() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	return b.nextID
}

func (b *bench) addSpan(s span) {
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

func (b *bench) since(t time.Time) int64 { return t.Sub(processStart).Nanoseconds() }
