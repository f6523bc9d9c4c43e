// Command perfbench is the repository's end-to-end benchmark. It runs one
// closed-loop workload for a fixed wall-clock window inside a single
// process, checks every job's output against independent computations and
// method properties, and prints the result as one JSON line:
//
//	perfbench --workload rate1-guard --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end set (setup time, round
// latency, simulated throughput, guard suboperations, allocation). With
// --trace 1 the same rounds run interleaved with traced rounds (runtime
// health histograms and event rings enabled) and the metrics are the
// per-layer set; they are also written, with every recorded span, to
// <out-dir>/trace-<workload>-<seed>.json.
//
// setup_s is the median set-up time of the run itself and of setupProcs
// fresh processes that each do the set-up alone (--setup-only), each timed
// from its own process start.
//
// --selftest runs one round of every workload plus the negative controls
// (a corrupted output sample, a changed revisited output, a dropped
// journal record) and exits non-zero unless every check behaves.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart is as close to process start as package main can observe.
var processStart = time.Now()

// setupProcs is how many fresh processes repeat the set-up for setup_s.
const setupProcs = 4

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name      = flag.String("workload", "", "workload: "+workloadNames())
		seed      = flag.Int64("seed", 1, "seed of the fault-injection seed list")
		seconds   = flag.Float64("seconds", 10, "length of the timed phase")
		trace     = flag.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
		outDir    = flag.String("out-dir", ".bench_build/perfbench", "directory for traced-run artifacts and journals")
		selftest  = flag.Bool("selftest", false, "run one round of every workload plus the negative controls")
		setupOnly = flag.Bool("setup-only", false, "run the workload's set-up, print its time from process start in seconds and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	if *selftest {
		return selfTest(*outDir, *seed)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	b := newBench(*outDir, *seed)
	defer b.close()
	if *setupOnly {
		if err := b.setup(w); err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		fmt.Println(time.Since(processStart).Seconds())
		return nil
	}
	res, err := measure(b, w, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs the set-up phase, then rounds of the workload until the
// window closes. Untraced runs then time the set-up in setupProcs fresh
// processes. Traced runs alternate untraced and traced rounds so the
// tracing overhead is a paired ratio.
func measure(b *bench, w *workload, window time.Duration, traced bool) (*result, error) {
	if err := b.setup(w); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	setups := []float64{time.Since(processStart).Seconds()}

	var lay *layers
	if traced {
		var err error
		if lay, err = microbenchmarks(); err != nil {
			return nil, err
		}
	}

	var (
		plain, tracedRounds []roundStats
		before, after       runtime.MemStats
	)
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; time.Since(start) < window || (traced && len(tracedRounds) == 0); r++ {
		// A traced run pairs each untraced round with a traced round of
		// the same jobs and seed.
		tr, logical := false, r
		if traced {
			tr, logical = r%2 == 1, r/2
		}
		rs, err := b.round(w, logical, tr)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, r, err)
		}
		if tr {
			tracedRounds = append(tracedRounds, rs)
		} else {
			plain = append(plain, rs)
		}
	}
	timed := time.Since(start)
	runtime.ReadMemStats(&after)

	all := append(append([]roundStats(nil), plain...), tracedRounds...)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, rs := range all {
		res.Attempted += rs.attempted
		res.Failed += rs.failed
		for _, e := range rs.errs {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "%s: check failed: %v\n", w.name, e)
		}
	}
	fmt.Printf("%s: %d rounds (%d untraced, %d traced), %d jobs attempted, %d failed, window %.2fs\n",
		w.name, len(all), len(plain), len(tracedRounds), res.Attempted, res.Failed, timed.Seconds())

	if traced {
		lay.addRounds(w, plain, tracedRounds)
		for name, m := range lay.metrics {
			res.Metrics[name] = m
		}
		if err := writeTrace(b, w, lay, tracedRounds); err != nil {
			return nil, err
		}
		return res, finite(res.Metrics)
	}

	roundMs := make([]float64, len(plain))
	var instr, guardOps, guardInstr uint64
	var wall time.Duration
	for i, rs := range plain {
		roundMs[i] = ms(rs.wall)
		wall += rs.wall
		instr += rs.instructions
		guardOps += rs.guardOps
		guardInstr += rs.guardInstructions
	}
	fmt.Printf("%s: round_ms_p50 over %d rounds; guard subops over %d guarded instructions\n",
		w.name, len(plain), guardInstr)
	more, err := freshSetups(w, b.seed, b.outDir)
	if err != nil {
		return nil, err
	}
	setups = append(setups, more...)
	fmt.Printf("%s: set-up from process start %v s, median of %d processes\n", w.name, setups, len(setups))
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["round_ms_p50"] = metric{median(roundMs), "ms"}
	res.Metrics["sim_minstr_per_s"] = metric{float64(instr) / 1e6 / wall.Seconds(), "Minstr/s"}
	res.Metrics["guard_subops_per_kinstr"] = metric{1000 * float64(guardOps) / float64(guardInstr), "subops/kinstr"}
	res.Metrics["alloc_mb_per_round"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(len(plain)), "MB"}
	return res, finite(res.Metrics)
}

// freshSetups runs the workload's set-up alone in setupProcs fresh
// processes, one after another, and returns each one's set-up time from
// its process start.
func freshSetups(w *workload, seed int64, outDir string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var times []float64
	for i := 0; i < setupProcs; i++ {
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--out-dir", outDir, "--setup-only")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up process %d: %w", i+1, err)
		}
		fields := strings.Fields(string(out))
		if len(fields) == 0 {
			return nil, fmt.Errorf("set-up process %d printed nothing", i+1)
		}
		t, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("set-up process %d: %w", i+1, err)
		}
		times = append(times, t)
	}
	return times, nil
}

// finite rejects NaN and infinite metric values, which JSON cannot carry
// and which only a broken measurement produces.
func finite(ms map[string]metric) error {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
