package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"commguard/internal/ecc"
	"commguard/internal/experiments"
	"commguard/internal/obs/hist"
	"commguard/internal/sim"
)

// layerSample is one traced job's per-layer counts and histogram sums,
// read from sim.Result: the run's counters (Result.Run, Result.Guard) and
// its runtime-health histograms (Result.Health).
type layerSample struct {
	headerECC, ptrECC          uint64
	fsm, headerBit, headers    uint64
	padded, discarded, realign uint64
	itemOps, timeouts          uint64
	wsCount, wsNs, waitNs      uint64
	fireItem, fireBatch        uint64
	fireABFT, fireNs           uint64
	detectItems                []uint64
	detectItemsSum             uint64
}

func sampleLayers(res *sim.Result) *layerSample {
	qt := res.Run.QueueTotals()
	l := &layerSample{
		ptrECC:   qt.PointerECCOps,
		itemOps:  qt.ItemStores + qt.ItemLoads,
		timeouts: qt.PushTimeouts + qt.PopTimeouts,
	}
	if g := res.Guard; g != nil {
		l.headerECC = g.Ops.ECC
		l.fsm = g.Ops.FSMCounter
		l.headerBit = g.Ops.HeaderBit
		l.headers = g.HI.HeadersInserted + g.HI.EOCInserted
		l.padded = g.AM.PaddedItems
		l.discarded = g.AM.DiscardedItems
		l.realign = g.AM.Realignments
	}
	for _, h := range res.Health {
		switch h.Name {
		case "queue_push_wait", "queue_pop_wait":
			l.waitNs += h.Sum
		case "queue_publish", "queue_return":
			l.wsCount += h.Count
			l.wsNs += h.Sum
		case "fire_item":
			l.fireItem += h.Count
			l.fireNs += h.Sum
		case "fire_batch":
			l.fireBatch += h.Count
			l.fireNs += h.Sum
		case "fire_abft":
			l.fireABFT += h.Count
			l.fireNs += h.Sum
		case "detect_items":
			l.detectItems = append([]uint64(nil), h.Buckets...)
			l.detectItemsSum = h.Sum
		}
	}
	return l
}

// layers accumulates the per-layer metrics of a traced run.
type layers struct {
	metrics map[string]metric
}

func (l *layers) set(name string, v float64, unit string) { l.metrics[name] = metric{v, unit} }

// microbenchmarks measures the single-layer benchmarks that run outside
// the workload: ECC encode+decode over a fixed word set, queue transit
// (experiments.HotpathBench) and kernel firing (experiments.KernelBench).
func microbenchmarks() (*layers, error) {
	l := &layers{metrics: map[string]metric{}}
	start := time.Now()
	ns, err := eccRoundtrip()
	if err != nil {
		return nil, err
	}
	l.set("ecc.roundtrip_ns", ns, "ns")

	o := experiments.DefaultOptions()
	o.Quick, o.Seeds, o.Sequential = true, 1, true
	hp, err := experiments.HotpathBench(o, 1<<16)
	if err != nil {
		return nil, fmt.Errorf("hotpath bench: %w", err)
	}
	for _, v := range hp.Variants {
		switch v.Name {
		case "push-pop":
			l.set("queue.transit_ns_per_item.plain", v.NsPerItem, "ns")
		case "guarded-per-item":
			l.set("queue.transit_ns_per_item.guarded", v.NsPerItem, "ns")
		}
	}
	kb, err := experiments.KernelBench(experiments.Options{Quick: true})
	if err != nil {
		return nil, fmt.Errorf("kernel bench: %w", err)
	}
	for _, v := range kb.Variants {
		if v.Variant != "batch" || v.GOMAXPROCS != runtime.GOMAXPROCS(0) {
			continue
		}
		switch v.Kernel {
		case "dct2d", "fir", "mdct":
			l.set("stream.kernel_ns_per_item."+v.Kernel, v.NsPerItem, "ns")
		}
	}
	fmt.Printf("microbenchmarks: %.2fs\n", time.Since(start).Seconds())
	return l, nil
}

// eccRoundtrip times Encode+Decode of the default coder over a fixed set
// of words, returning the median ns per word over repeated passes.
func eccRoundtrip() (float64, error) {
	words := make([]uint32, 1<<14)
	r := rand.New(rand.NewSource(1))
	for i := range words {
		words[i] = r.Uint32()
	}
	c := ecc.Hamming
	var passes []float64
	for p := 0; p < 21; p++ {
		t0 := time.Now()
		for _, w := range words {
			got, res := c.Decode(c.Encode(w))
			if got != w || res != ecc.OK {
				return 0, fmt.Errorf("ecc: word %#x decoded as %#x (%v)", w, got, res)
			}
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(len(words)))
	}
	return median(passes), nil
}

// protections lists the protection levels with a job-time metric.
var protections = []sim.Protection{sim.ErrorFree, sim.CommGuard, sim.ABFT, sim.ReliableQueue}

// addRounds derives the per-layer metrics. Counts and histogram sums come
// from the traced rounds; job times, pool occupancy and journal hand-off
// come from the untraced rounds, which tracing does not slow.
func (l *layers) addRounds(w *workload, plain, traced []roundStats) {
	n := float64(len(traced))
	var s layerSample
	var merged [hist.Buckets]uint64
	var faults uint64
	var selfNs float64
	for _, rs := range traced {
		faults += rs.faults
		for _, j := range rs.jobs {
			js := j.layer
			if js == nil {
				continue
			}
			s.headerECC += js.headerECC
			s.ptrECC += js.ptrECC
			s.fsm += js.fsm
			s.headerBit += js.headerBit
			s.headers += js.headers
			s.padded += js.padded
			s.discarded += js.discarded
			s.realign += js.realign
			s.itemOps += js.itemOps
			s.timeouts += js.timeouts
			s.wsCount += js.wsCount
			s.wsNs += js.wsNs
			s.waitNs += js.waitNs
			s.fireItem += js.fireItem
			s.fireBatch += js.fireBatch
			s.fireABFT += js.fireABFT
			s.fireNs += js.fireNs
			s.detectItemsSum += js.detectItemsSum
			for i, c := range js.detectItems {
				merged[i] += c
			}
			// The engine's own time: the run minus firing, queue waits and
			// working-set exchange, which the sequential engine runs one at
			// a time.
			selfNs += float64(j.run.Nanoseconds()) - float64(js.fireNs+js.waitNs+js.wsNs)
		}
	}
	per := func(v uint64) float64 { return float64(v) / n }
	perMs := func(ns uint64) float64 { return float64(ns) / 1e6 / n }

	l.set("ecc.ops_per_round", per(s.headerECC+s.ptrECC), "count")
	l.set("queue.ptr_ecc_ops_per_round", per(s.ptrECC), "count")
	l.set("queue.ws_exchanges_per_round", per(s.wsCount), "count")
	l.set("queue.ws_exchange_ms_per_round", perMs(s.wsNs), "ms")
	l.set("queue.wait_ms_per_round", perMs(s.waitNs), "ms")
	l.set("queue.timeouts_per_round", per(s.timeouts), "count")
	l.set("queue.item_ops_per_round", per(s.itemOps), "count")
	l.set("commguard.headers_per_round", per(s.headers), "count")
	l.set("commguard.fsm_ops_per_round", per(s.fsm), "count")
	l.set("commguard.header_bit_ops_per_round", per(s.headerBit), "count")
	l.set("commguard.padded_items_per_round", per(s.padded), "count")
	l.set("commguard.discarded_items_per_round", per(s.discarded), "count")
	l.set("commguard.realignments_per_round", per(s.realign), "count")
	l.set("commguard.detect_items_p50", hist.FromBuckets("detect_items", "items", merged[:], s.detectItemsSum).P50, "items")
	l.set("stream.fire_item_per_round", per(s.fireItem), "count")
	l.set("stream.fire_batch_per_round", per(s.fireBatch), "count")
	l.set("stream.fire_abft_per_round", per(s.fireABFT), "count")
	fires := s.fireItem + s.fireBatch + s.fireABFT
	share := 0.0
	if fires > 0 {
		share = float64(s.fireBatch+s.fireABFT) / float64(fires)
	}
	l.set("stream.batch_share", share, "ratio")
	l.set("stream.fire_ms_per_round", perMs(s.fireNs), "ms")
	l.set("fault.injected_per_round", per(faults), "count")
	l.set("sim.engine_self_ms_per_round", selfNs/1e6/n, "ms")

	// Untraced rounds: job times by protection, the guard slowdown, set-up
	// work per round, pool occupancy and journal hand-off.
	runMs := map[sim.Protection][]float64{}
	appRunMs := map[string]map[sim.Protection][]float64{}
	var buildNs, jobNs, poolNs float64
	var gaps, plainWall, tracedWall []float64
	for _, rs := range plain {
		plainWall = append(plainWall, ms(rs.wall))
		poolNs += float64(rs.workers) * float64(rs.wall.Nanoseconds())
		for _, g := range rs.journalGaps {
			gaps = append(gaps, ms(g))
		}
		for _, j := range rs.jobs {
			runMs[j.spec.protection] = append(runMs[j.spec.protection], ms(j.run))
			if appRunMs[j.spec.app] == nil {
				appRunMs[j.spec.app] = map[sim.Protection][]float64{}
			}
			appRunMs[j.spec.app][j.spec.protection] = append(appRunMs[j.spec.app][j.spec.protection], ms(j.run))
			buildNs += float64(j.build.Nanoseconds())
			jobNs += float64((j.build + j.run + j.check).Nanoseconds())
		}
	}
	for _, rs := range traced {
		tracedWall = append(tracedWall, ms(rs.wall))
	}
	for _, p := range protections {
		name := p.String()
		l.set("sim.job_ms_p50."+name, median(runMs[p]), "ms")
		// A 90th percentile needs at least ten samples beyond it.
		p90 := 0.0
		if len(runMs[p]) >= 100 {
			p90 = quantile(runMs[p], 0.9)
		}
		l.set("sim.job_ms_p90."+name, p90, "ms")
	}
	// Fig 13's measure: CommGuard over error-free median run time, gmean
	// over the apps that ran both.
	logSum, apps := 0.0, 0
	for _, byProt := range appRunMs {
		ef, cg := byProt[sim.ErrorFree], byProt[sim.CommGuard]
		if len(ef) > 0 && len(cg) > 0 {
			logSum += math.Log(median(cg) / median(ef))
			apps++
		}
	}
	slowdown := 0.0
	if apps > 0 {
		slowdown = math.Exp(logSum / float64(apps))
	}
	l.set("sim.guard_slowdown", slowdown, "ratio")
	l.set("apps.build_ms_per_round", buildNs/1e6/float64(len(plain)), "ms")
	l.set("campaign.pool_busy_share", jobNs/poolNs, "ratio")
	l.set("campaign.journal_append_ms_p50", median(gaps), "ms")
	l.set("obs.trace_overhead", median(tracedWall)/median(plainWall), "ratio")
	fmt.Printf("%s: per-layer counts over %d traced rounds; job times over %d untraced rounds (%d %s, %d %s, %d %s, %d %s jobs)\n",
		w.name, len(traced), len(plain),
		len(runMs[sim.ErrorFree]), sim.ErrorFree, len(runMs[sim.CommGuard]), sim.CommGuard,
		len(runMs[sim.ABFT]), sim.ABFT, len(runMs[sim.ReliableQueue]), sim.ReliableQueue)
}

// writeTrace writes the traced run's metrics and spans.
func writeTrace(b *bench, w *workload, l *layers, traced []roundStats) error {
	path := filepath.Join(b.outDir, fmt.Sprintf("trace-%s-%d.json", w.name, b.seed))
	doc := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Rounds   int               `json:"traced_rounds"`
		Metrics  map[string]metric `json:"metrics"`
		Spans    []span            `json:"spans"`
	}{w.name, b.seed, len(traced), l.metrics, b.spans}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: per-layer metrics and %d spans written to %s\n", w.name, len(b.spans), path)
	return nil
}
