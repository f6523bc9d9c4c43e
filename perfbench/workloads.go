package main

import (
	"strings"

	"commguard/internal/campaign"
	"commguard/internal/sim"
)

// jobSpec is one job: build one instance of app, run it on the sequential
// engine under the configuration, check its output.
type jobSpec struct {
	app        string
	protection sim.Protection
	mtbe       float64
	seed       int64
}

// workload is a fixed list of jobs (a round), repeated until the window
// closes.
type workload struct {
	name string
	// apps are the benchmarks the workload runs; set-up builds and checks
	// an error-free reference for each.
	apps []string
	// jobs returns round r's job list. Every round of a workload has the
	// same jobs apart from the rotating seed.
	jobs func(b *bench, r int) []jobSpec
	// campaign rounds run their jobs through campaign.Runner with a fresh
	// journal instead of one after another.
	campaign bool
}

// Rate-1 apps: per-sample frames, one header per data item.
var rate1Apps = []string{"audiobeamformer", "channelvocoder", "complex-fir"}

var sweepApps = []string{"audiobeamformer", "channelvocoder", "complex-fir", "fft"}

// sweepAxes is the sweep-campaign lattice of one round: four apps, two
// protections, three error rates, one seed.
func sweepAxes(seed int64) campaign.Axes {
	return campaign.Axes{
		Figure:      "perfbench-sweep",
		Apps:        sweepApps,
		Protections: []string{sim.ReliableQueue.String(), sim.CommGuard.String()},
		MTBEs:       []float64{64e3, 512e3, 4096e3},
		Seeds:       []int64{seed},
	}
}

var protectionByName = map[string]sim.Protection{
	sim.ReliableQueue.String(): sim.ReliableQueue,
	sim.CommGuard.String():     sim.CommGuard,
}

// mediaMTBE is the media-faults error rate: about 170 faults per jpeg job
// and 8 per mp3 job.
const mediaMTBE = 256e3

var workloads = []*workload{
	{
		name: "rate1-guard",
		apps: rate1Apps,
		jobs: func(b *bench, r int) []jobSpec {
			var jobs []jobSpec
			for _, app := range rate1Apps {
				pair := []sim.Protection{sim.ErrorFree, sim.CommGuard}
				if r%2 == 1 {
					pair[0], pair[1] = pair[1], pair[0]
				}
				for _, p := range pair {
					jobs = append(jobs, jobSpec{app: app, protection: p})
				}
			}
			return jobs
		},
	},
	{
		name: "media-faults",
		apps: []string{"jpeg", "mp3"},
		jobs: func(b *bench, r int) []jobSpec {
			seed := b.roundSeed(r)
			var jobs []jobSpec
			for _, app := range []string{"jpeg", "mp3"} {
				for _, p := range []sim.Protection{sim.CommGuard, sim.ABFT} {
					jobs = append(jobs, jobSpec{app: app, protection: p, mtbe: mediaMTBE, seed: seed})
				}
			}
			return jobs
		},
	},
	{
		name:     "sweep-campaign",
		apps:     sweepApps,
		campaign: true,
		jobs: func(b *bench, r int) []jobSpec {
			lattice := sweepAxes(b.roundSeed(r)).Expand()
			jobs := make([]jobSpec, len(lattice))
			for i, j := range lattice {
				jobs[i] = jobSpec{app: j.App, protection: protectionByName[j.Protection], mtbe: j.MTBE, seed: j.Seed}
			}
			return jobs
		},
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
