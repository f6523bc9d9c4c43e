package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"commguard/internal/sim"
)

// selfTest runs one round of every workload, then the negative controls:
// each damages one thing a check guards and fails unless that check
// reports it.
func selfTest(outDir string, seed int64) error {
	var failures []string
	fail := func(format string, a ...any) {
		failures = append(failures, fmt.Sprintf(format, a...))
		fmt.Printf("FAIL "+format+"\n", a...)
	}
	benches := map[string]*bench{}
	for _, w := range workloads {
		b := newBench(outDir, seed)
		defer b.close()
		benches[w.name] = b
		if err := b.setup(w); err != nil {
			fail("smoke %s: set-up: %v", w.name, err)
			continue
		}
		rs, err := b.round(w, 1, false)
		switch {
		case err != nil:
			fail("smoke %s: %v", w.name, err)
		case len(rs.errs) > 0:
			fail("smoke %s: %v", w.name, rs.errs[0])
		default:
			fmt.Printf("ok   smoke %s: %d jobs, %.0f ms\n", w.name, rs.attempted, ms(rs.wall))
		}
	}

	// The timed workloads run the sequential engine only; the concurrent
	// engine must reproduce its error-free output bit for bit.
	for _, app := range rate1Apps {
		b := benches["rate1-guard"]
		ref, ok := b.refs[app]
		if !ok {
			continue
		}
		for _, p := range []sim.Protection{sim.ErrorFree, sim.CommGuard} {
			if err := b.checkIdentity(app, ref, p, false); err != nil {
				fail("concurrent engine identity: %v", err)
			} else {
				fmt.Printf("ok   concurrent engine identity: %s %s\n", app, p)
			}
		}
	}

	// expectCaught runs one round of w with damage applied and requires a
	// check error containing want.
	expectCaught := func(control string, w *workload, b *bench, want string) {
		rs, err := b.round(w, 0, false)
		if err != nil {
			fail("%s: round error %v", control, err)
			return
		}
		for _, e := range rs.errs {
			if strings.Contains(e.Error(), want) {
				fmt.Printf("ok   %s: caught (%v)\n", control, firstLine(e.Error()))
				return
			}
		}
		fail("%s: no check reported %q (errors: %v)", control, want, rs.errs)
	}

	rate1, _ := workloadByName("rate1-guard")
	if b := benches[rate1.name]; len(b.refs) > 0 {
		b.corrupt = func(spec jobSpec, out []float64) {
			if spec.app == "complex-fir" {
				out[len(out)/2] += 1
			}
		}
		expectCaught("corrupted output sample in a round", rate1, b, "output[")
		for _, seq := range []bool{true, false} {
			control := fmt.Sprintf("corrupted output sample (sequential=%v)", seq)
			if err := b.checkIdentity("complex-fir", b.refs["complex-fir"], sim.ErrorFree, seq); err == nil || !strings.Contains(err.Error(), "output[") {
				fail("%s: identity check returned %v", control, err)
			} else {
				fmt.Printf("ok   %s: caught (%v)\n", control, firstLine(err.Error()))
			}
		}
		b.corrupt = nil
	}
	for app, ref := range benches["sweep-campaign"].refs {
		if app != "fft" && app != "complex-fir" {
			continue
		}
		bad := append([]float64(nil), ref.out...)
		bad[len(bad)/3] += 0.5
		if err := checkIndependent(app, bad); err == nil {
			fail("corrupted %s sample: independent check passed", app)
		} else {
			fmt.Printf("ok   corrupted %s sample vs independent computation: caught (%v)\n", app, err)
		}
	}
	for app, ref := range benches["media-faults"].refs {
		bad := append([]float64(nil), ref.out...)
		bad[len(bad)/3] += 1
		if err := checkIndependent(app, bad); err == nil {
			fail("corrupted %s sample: independent check passed", app)
		} else {
			fmt.Printf("ok   corrupted %s sample vs independent decoder: caught (%v)\n", app, err)
		}
	}

	media, _ := workloadByName("media-faults")
	if b := benches[media.name]; len(b.refs) > 0 {
		// Round 0's seed was visited in set-up, so this is a revisit.
		b.corrupt = func(spec jobSpec, out []float64) {
			if spec.app == "jpeg" {
				out[0] = 255 - out[0]
			}
		}
		expectCaught("changed revisited output", media, b, "revisited seed changed")
		b.corrupt = nil
	}

	sweep, _ := workloadByName("sweep-campaign")
	if b := benches[sweep.name]; len(b.refs) > 0 {
		b.tamperJournal = dropLastRecord
		expectCaught("dropped journal record", sweep, b, "journal")
		b.tamperJournal = nil
	}

	if len(failures) > 0 {
		return fmt.Errorf("self-test: %d of the checks above failed", len(failures))
	}
	fmt.Println("self-test: all smoke rounds passed and every negative control was caught")
	return nil
}

// dropLastRecord removes the final line of a journal file.
func dropLastRecord(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := bytes.SplitAfter(bytes.TrimRight(data, "\n"), []byte("\n"))
	return os.WriteFile(path, bytes.Join(lines[:len(lines)-1], nil), 0o644)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
