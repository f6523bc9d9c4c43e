package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"commguard/internal/apps"
	"commguard/internal/codec/jpegcodec"
	"commguard/internal/codec/mp3codec"
	"commguard/internal/dsp"
	"commguard/internal/sim"
	"commguard/internal/stream"
)

// tapeItems returns the length of an app's source tape under its default
// config: the numerator of the iteration count every run must reach.
func tapeItems(app string) int {
	switch app {
	case "audiobeamformer":
		c := apps.DefaultBeamformerConfig()
		return c.Channels * c.Samples
	case "channelvocoder":
		return apps.DefaultVocoderConfig().Samples
	case "complex-fir":
		return 2 * apps.DefaultComplexFIRConfig().Samples
	case "fft":
		c := apps.DefaultFFTConfig()
		return 2 * c.Points * c.Blocks
	case "jpeg":
		c := apps.DefaultJPEGConfig()
		return (c.W / 8) * (c.H / 8) * jpegcodec.CoeffsPerMCU
	case "mp3":
		return apps.DefaultMP3Config().Frames * mp3codec.ItemsPerFrame
	}
	return 0
}

// buildReference runs app error-free on the sequential engine, checks the
// output against an independent computation where the app has one, and
// checks that CommGuard on the same engine reproduces it bit for bit.
func (b *bench) buildReference(app string) (*reference, error) {
	builder, ok := apps.ByName(app)
	if !ok {
		return nil, fmt.Errorf("unknown app %q", app)
	}
	inst, err := builder.New()
	if err != nil {
		return nil, err
	}
	sched, err := stream.Solve(inst.Graph)
	if err != nil {
		return nil, err
	}
	srcs := inst.Graph.Sources()
	if len(srcs) != 1 {
		return nil, fmt.Errorf("%d sources, want 1", len(srcs))
	}
	perIter := sched.Multiplicity[srcs[0].ID] * srcs[0].F.PushRates()[0]
	ref := &reference{iterations: tapeItems(app) / perIter, edges: len(inst.Graph.Edges), sink: -1}
	for _, n := range inst.Graph.Nodes {
		if len(n.Out) == 0 {
			ref.sink, ref.sinkRate = n.ID, n.F.PopRates()[0]
		}
	}
	if ref.sink < 0 {
		return nil, fmt.Errorf("no sink node")
	}
	// jpeg reassembles a fixed-size image from whatever its sink collected.
	ref.fixedLength = app == "jpeg"
	res, err := sim.Run(inst, sim.Config{Protection: sim.ErrorFree, Sequential: true}, nil)
	if err != nil {
		return nil, err
	}
	if res.Run.Iterations != ref.iterations {
		return nil, fmt.Errorf("ran %d iterations, tape and schedule give %d", res.Run.Iterations, ref.iterations)
	}
	ref.out = res.Output
	ref.instructions = res.Run.TotalInstructions()
	ref.sinkFirings = res.Run.Cores[ref.sink].Firings
	if err := checkIndependent(app, ref.out); err != nil {
		return nil, err
	}
	if err := b.checkIdentity(app, ref, sim.CommGuard, true); err != nil {
		return nil, err
	}
	return ref, nil
}

// checkIdentity runs app error-free under protection p on the chosen
// engine and holds it to the sequential error-free reference.
func (b *bench) checkIdentity(app string, ref *reference, p sim.Protection, sequential bool) error {
	builder, _ := apps.ByName(app)
	inst, err := builder.New()
	if err != nil {
		return err
	}
	res, err := sim.Run(inst, sim.Config{Protection: p, Sequential: sequential}, nil)
	if err != nil {
		return err
	}
	if b.corrupt != nil {
		b.corrupt(jobSpec{app: app, protection: p}, res.Output)
	}
	if err := checkErrorFree(res, ref); err != nil {
		return fmt.Errorf("%s %s (sequential=%v) against sequential error-free: %w", app, p, sequential, err)
	}
	return nil
}

// checkErrorFree holds an error-free run to its reference: the same
// instructions, iterations and output bits, and for CommGuard one header
// per edge per iteration, one end-of-computation header per edge and no
// padded or discarded item.
func checkErrorFree(res *sim.Result, ref *reference) error {
	if n := res.Run.TotalInstructions(); n != ref.instructions {
		return fmt.Errorf("%d instructions, reference %d", n, ref.instructions)
	}
	if res.Run.Iterations != ref.iterations {
		return fmt.Errorf("%d iterations, want %d", res.Run.Iterations, ref.iterations)
	}
	if g := res.Guard; g != nil {
		if want := uint64(ref.iterations * ref.edges); g.HI.HeadersInserted != want {
			return fmt.Errorf("%d headers inserted, want iterations x edges = %d", g.HI.HeadersInserted, want)
		}
		if g.HI.EOCInserted != uint64(ref.edges) {
			return fmt.Errorf("%d end-of-computation headers, want %d edges", g.HI.EOCInserted, ref.edges)
		}
		if g.AM.PaddedItems != 0 || g.AM.DiscardedItems != 0 {
			return fmt.Errorf("error-free run padded %d and discarded %d items", g.AM.PaddedItems, g.AM.DiscardedItems)
		}
	}
	return sameBits(res.Output, ref.out)
}

// checkFaulty holds a fault-injected job to the properties that do not
// depend on where the faults land: the output has the error-free length
// give or take the sink firings the injector skipped or repeated, a job
// that drew no fault equals the error-free output, and a job revisited
// with the same seed reproduces its output digest and counters bit for
// bit.
func (b *bench) checkFaulty(spec jobSpec, res *sim.Result, ref *reference) error {
	// A control-flow fault on the sink core skips or repeats a whole sink
	// firing under every protection scheme, so the collected tape is
	// exactly that many firings shorter or longer.
	sink := res.Run.Cores[ref.sink]
	slip := int(sink.RepeatedFirings) - int(sink.SkippedFirings)
	if got, want := int(sink.Firings), int(ref.sinkFirings)+slip; got != want {
		return fmt.Errorf("sink fired %d times, want error-free %d %+d injected slips", got, ref.sinkFirings, slip)
	}
	want := len(ref.out)
	if !ref.fixedLength {
		want += slip * ref.sinkRate
	}
	if len(res.Output) != want {
		return fmt.Errorf("output length %d, want %d (error-free %d %+d injected sink slips)",
			len(res.Output), want, len(ref.out), slip)
	}
	var faults uint64
	for _, c := range res.Run.Cores {
		faults += c.Errors.Total()
	}
	if faults == 0 {
		if err := sameBits(res.Output, ref.out); err != nil {
			return fmt.Errorf("no fault injected, yet output differs from error-free: %w", err)
		}
	}
	v := visit{digest: digest(res.Output), counters: counters(res)}
	b.mu.Lock()
	first, seen := b.visits[spec]
	if !seen {
		b.visits[spec] = v
	}
	b.mu.Unlock()
	if seen && v != first {
		if v.digest != first.digest {
			return errors.New("revisited seed changed the output digest")
		}
		return fmt.Errorf("revisited seed changed the counters:\n  first %s\n  now   %s", first.counters, v.counters)
	}
	return nil
}

func digest(out []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range out {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// counters renders every deterministic count of a run (wall-clock fields
// excluded) for revisit comparison.
func counters(res *sim.Result) string {
	s := fmt.Sprintf("iter=%d quality=%x cores=%v queues=%v",
		res.Run.Iterations, math.Float64bits(res.Quality), res.Run.Cores, res.Run.Queues)
	if res.Guard != nil {
		s += fmt.Sprintf(" guard=%+v", *res.Guard)
	}
	return s
}

func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("output length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("output[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkIndependent compares an app's error-free output with a computation
// that does not go through the stream graph.
func checkIndependent(app string, out []float64) error {
	switch app {
	case "jpeg":
		return checkJPEG(out)
	case "mp3":
		return checkMP3(out)
	case "fft":
		return checkFFT(out)
	case "complex-fir":
		return checkComplexFIR(out)
	}
	return nil
}

// checkJPEG: the streamed decode equals the monolithic reference decoder
// pixel for pixel.
func checkJPEG(out []float64) error {
	cfg := apps.DefaultJPEGConfig()
	data, err := jpegcodec.Encode(jpegcodec.TestImage(cfg.W, cfg.H), cfg.Quality)
	if err != nil {
		return err
	}
	img, err := jpegcodec.Decode(data)
	if err != nil {
		return err
	}
	if len(out) != len(img.Pix) {
		return fmt.Errorf("jpeg: %d pixels, decoder %d", len(out), len(img.Pix))
	}
	for i, p := range img.Pix {
		if out[i] != float64(p) {
			return fmt.Errorf("jpeg: byte %d = %v, jpegcodec.Decode %d", i, out[i], p)
		}
	}
	return nil
}

// checkMP3: the streamed decode agrees with the monolithic decoder to
// float32 precision (the stream carries float32 between stages; the
// output stage clamps to +-2).
func checkMP3(out []float64) error {
	cfg := apps.DefaultMP3Config()
	data, err := mp3codec.Encode(mp3codec.TestSignal(cfg.Frames * mp3codec.FrameSamples))
	if err != nil {
		return err
	}
	pcm, err := mp3codec.Decode(data)
	if err != nil {
		return err
	}
	if len(out) != len(pcm) {
		return fmt.Errorf("mp3: %d samples, decoder %d", len(out), len(pcm))
	}
	for i, v := range pcm {
		v = math.Max(-2, math.Min(2, v))
		if math.Abs(out[i]-v) > f32Tol(v) {
			return fmt.Errorf("mp3: sample %d = %v, mp3codec.Decode %v", i, out[i], v)
		}
	}
	return nil
}

// f32Tol allows a few float32 roundings of a value of v's magnitude (and
// of order-one intermediates) to accumulate.
func f32Tol(v float64) float64 {
	const eps = 1.0 / (1 << 23)
	return 16 * eps * math.Max(1, math.Abs(v))
}

// checkFFT: each output block is the magnitude spectrum of the
// Hann-windowed input block, computed here as a direct O(n^2) DFT.
func checkFFT(out []float64) error {
	cfg := apps.DefaultFFTConfig()
	n := cfg.Points
	if len(out) != n*cfg.Blocks {
		return fmt.Errorf("fft: %d outputs, want %d", len(out), n*cfg.Blocks)
	}
	x := make([]float64, n)
	for blk := 0; blk < cfg.Blocks; blk++ {
		for i := range x {
			ft := float64(blk*n + i)
			v := 0.7*math.Sin(2*math.Pi*0.07*ft) + 0.4*math.Sin(2*math.Pi*0.19*ft+0.5) +
				0.1*math.Sin(2*math.Pi*0.33*ft)
			hann := 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
			x[i] = float64(float32(v)) * hann
		}
		for k := 0; k < n; k++ {
			var re, im float64
			for t, v := range x {
				a := -2 * math.Pi * float64(k*t%n) / float64(n)
				re += v * math.Cos(a)
				im += v * math.Sin(a)
			}
			want := math.Min(math.Hypot(re, im), 4*float64(n))
			if got := out[blk*n+k]; math.Abs(got-want) > 64*f32Tol(want) {
				return fmt.Errorf("fft: block %d bin %d = %v, direct DFT %v", blk, k, got, want)
			}
		}
	}
	return nil
}

// checkComplexFIR: the output is the input chirp convolved with each
// stage's complex taps in turn, computed here as direct sums.
func checkComplexFIR(out []float64) error {
	cfg := apps.DefaultComplexFIRConfig()
	n := cfg.Samples
	re := make([]float64, n)
	im := make([]float64, n)
	for t := range re {
		ft := float64(t)
		f := 0.02 + 0.2*ft/float64(n)
		re[t] = float64(float32(math.Cos(2 * math.Pi * f * ft)))
		im[t] = float64(float32(math.Sin(2 * math.Pi * f * ft)))
	}
	for s := 0; s < cfg.Stages; s++ {
		base := dsp.LowPassTaps(cfg.Taps, 0.2)
		shift := 0.05 * float64(s)
		yr := make([]float64, n)
		yi := make([]float64, n)
		for t := 0; t < n; t++ {
			for k, h := range base {
				if t-k < 0 {
					break
				}
				hr := h * math.Cos(2*math.Pi*shift*float64(k))
				hi := h * math.Sin(2*math.Pi*shift*float64(k))
				yr[t] += hr*re[t-k] - hi*im[t-k]
				yi[t] += hr*im[t-k] + hi*re[t-k]
			}
			yr[t] = float64(float32(yr[t]))
			yi[t] = float64(float32(yi[t]))
		}
		re, im = yr, yi
	}
	if len(out) != 2*n {
		return fmt.Errorf("complex-fir: %d outputs, want %d", len(out), 2*n)
	}
	for t := 0; t < n; t++ {
		if math.Abs(out[2*t]-re[t]) > f32Tol(re[t]) || math.Abs(out[2*t+1]-im[t]) > f32Tol(im[t]) {
			return fmt.Errorf("complex-fir: sample %d = (%v, %v), direct convolution (%v, %v)",
				t, out[2*t], out[2*t+1], re[t], im[t])
		}
	}
	return nil
}
