// Command schedbench is the end-to-end benchmark of schedd: it
// launches the real binary as child processes, drives it over
// loopback HTTP with two closed-loop clients, checks every answer,
// and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) of one workload. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	schedd   string
	workdir  string
	// smoke runs one set-up instead of several and a short replay, for
	// the benchmark's own tests.
	smoke bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: read-mix, commit-ring or solver-heavy")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated platforms and request streams")
	flag.Float64Var(&o.seconds, "seconds", 28, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.StringVar(&o.schedd, "schedd", "", "schedd binary to launch")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for temporary files and span dumps")
	flag.BoolVar(&o.smoke, "smoke", false, "one set-up and a short replay")
	flag.Parse()
	o.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, o, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload and returns its result; report lines go
// to out. Every schedd it starts is stopped, and every directory it
// creates removed, before it returns.
func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.schedd == "" {
		return nil, errors.New("-schedd is required")
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	dir, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("run-%s-%d-%d", w.name, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	g, err := generate(w, o.seed, clients)
	if err != nil {
		return nil, err
	}

	// Set-up, several times; the last deployment serves the run.
	reps := w.setupReps
	if o.smoke {
		reps = 1
	}
	var setups []float64
	var cl *deployment
	defer func() {
		if cl != nil {
			cl.stop()
		}
	}()
	for i := 0; i < reps; i++ {
		if cl != nil {
			cl.stop()
		}
		var s float64
		cl, s, err = setup(ctx, o.schedd, filepath.Join(dir, fmt.Sprintf("deploy%d", i)), w, g)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
	}

	own, err := owners(ctx, cl.urls(), g)
	if err != nil {
		return nil, err
	}
	l := newLoop(w, g, cl.urls(), own, o.seed)
	defer l.close()

	// Warm-up: fill the hot sets and let lazy set-up finish.
	warmup := l.run(ctx, dur(math.Min(2, o.seconds/4)), nil)

	// A measured run cuts its window into parts, times each, and keeps
	// the half the hypervisor stole the least CPU from (see quietest).
	// A traced run has an untraced half and a traced half.
	var measured, plain, quiet *window
	var quietCPU float64 // schedd CPU ms over the kept parts
	var keptSteal float64
	steal0, total0 := hostTicks()
	if o.trace {
		plain = l.run(ctx, dur(o.seconds/2), nil)
	}
	before, err := takeScrape(ctx, l, cl)
	if err != nil {
		return nil, err
	}
	if o.trace {
		measured = l.run(ctx, dur(o.seconds/2), newSpanLog())
	} else {
		parts := make([]part, windowParts)
		cpu0 := before.cpuMs
		for i := range parts {
			s0, t0 := hostTicks()
			parts[i].win = l.run(ctx, dur(o.seconds/windowParts), nil)
			s1, t1 := hostTicks()
			cpu1, err := cl.cpuMs()
			if err != nil {
				return nil, err
			}
			parts[i].cpuMs, cpu0 = cpu1-cpu0, cpu1
			parts[i].steal = ratio(s1-s0, t1-t0)
		}
		var all []*window
		for _, p := range parts {
			all = append(all, p.win)
		}
		measured = merge(all)
		kept := quietest(parts)
		var wins []*window
		for _, p := range kept {
			wins = append(wins, p.win)
			quietCPU += p.cpuMs
			keptSteal += p.steal / float64(len(kept))
		}
		quiet = merge(wins)
	}
	steal1, total1 := hostTicks()
	after, err := takeScrape(ctx, l, cl)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	rss, err := cl.peakRSSMB()
	if err != nil {
		return nil, err
	}

	wrong := append(warmup.wrong, measured.wrong...)
	if plain != nil {
		wrong = append(wrong, plain.wrong...)
	}
	wrong = append(wrong, l.verify(ctx)...)
	var total, delta counters
	total.add(after, 1)
	delta.add(after, 1)
	delta.add(before, -1)
	invariants := checkInvariants(total, len(g.sessions))

	res := &result{
		Correct:   len(wrong) == 0 && len(invariants) == 0,
		Attempted: measured.attempted,
		Failed:    measured.failed,
		Metrics:   make(map[string]metric),
	}
	fmt.Fprintf(out, "workload %s seed %d: %d requests in %.2fs, %d failed, %d wrong answers\n",
		w.name, o.seed, measured.attempted, measured.seconds, measured.failed, len(wrong))
	for _, msg := range append(append(l.errs, wrong...), invariants...) {
		fmt.Fprintln(out, "  !", msg)
	}
	fmt.Fprintf(out, "  host CPU steal: %.1f%% over the window", 100*ratio(steal1-steal0, total1-total0))
	if quiet != nil {
		fmt.Fprintf(out, ", %.1f%% over the kept half", 100*keptSteal)
	}
	fmt.Fprintln(out)
	delta.print(out, measured.seconds)

	if o.trace {
		layers, err := perLayer(o, w, g, measured, plain, delta, dir)
		if err != nil {
			return nil, err
		}
		names := make([]string, 0, len(layers))
		for n := range layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			res.Metrics[n] = metric{layers[n], layerUnit(n)}
			fmt.Fprintf(out, "  %-44s %14.4f %s\n", n, layers[n], layerUnit(n))
		}
		return res, nil
	}

	put := func(name, unit string, v float64, note string) {
		res.Metrics[name] = metric{v, unit}
		fmt.Fprintf(out, "  %-24s %12.4f %-6s %s\n", name, v, unit, note)
	}
	put("setup_s", "s", median(setups), fmt.Sprintf("(median of %d set-ups)", len(setups)))
	endToEnd(w, quiet, quietCPU, put)
	put("peak_rss_mb", "MiB", rss, fmt.Sprintf("(VmHWM summed over %d processes)", len(cl.procs)))
	// failed_frac and wrong_answers are 0 on a correct run, so they
	// travel as the result's failed/attempted and correct fields
	// rather than as metrics.
	fmt.Fprintf(out, "  %-24s %12.4f %-6s (%d of %d)\n", "failed_frac", float64(measured.failed)/float64(measured.attempted), "1", measured.failed, measured.attempted)
	fmt.Fprintf(out, "  %-24s %12d %-6s\n", "wrong_answers", len(wrong), "count")
	return res, nil
}

// metricName is each class's name in the end-to-end metrics.
var metricName = [nClasses]string{"query", "whatif", "batch", "commit"}

// windowParts is how many parts a measured window is cut into; the
// quieter half of them is kept.
const windowParts = 10

// part is one part of a measured window, with the schedd CPU it used
// and the share of the machine's CPU time the hypervisor stole.
type part struct {
	win          *window
	cpuMs, steal float64
}

// quietest returns the half of the parts with the least CPU steal, in
// window order. Steal is time the hypervisor ran other guests while a
// vCPU of this machine was ready; it comes in bursts that last
// seconds and slow every request by the same factor. It does not
// depend on the program under test, so keeping the quieter half
// measures the program rather than the neighbours, on the parent
// commit and on a change alike.
func quietest(parts []part) []part {
	idx := make([]int, len(parts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return parts[idx[a]].steal < parts[idx[b]].steal })
	keep := idx[:(len(parts)+1)/2]
	sort.Ints(keep)
	out := make([]part, len(keep))
	for i, j := range keep {
		out[i] = parts[j]
	}
	return out
}

// endToEnd computes every windowed end-to-end metric over the kept
// parts of the window and hands it to put with a note on its base.
func endToEnd(w *workload, quiet *window, cpuMs float64, put func(name, unit string, v float64, note string)) {
	lat := byClass(quiet)
	base := fmt.Sprintf("quieter %d of %d parts, %.1fs", (windowParts+1)/2, windowParts, quiet.seconds)
	for _, k := range []int{cQuery, cWhatIf, cEpoch, cBatch} {
		put(metricName[k]+"_p50_ms", "ms", percentile(lat[k], 0.5), fmt.Sprintf("(%s, n=%d)", base, len(lat[k])))
		if k != cWhatIf && k != cEpoch {
			continue
		}
		p := w.tail[k]
		beyond := int(float64(len(lat[k])) * (1 - p))
		note := fmt.Sprintf("(p%.0f, n=%d, %d beyond)", p*100, len(lat[k]), beyond)
		if beyond < 10 {
			note += " FEWER THAN 10 BEYOND"
		}
		put(metricName[k]+"_tail_ms", "ms", percentile(lat[k], p), note)
	}
	completed := float64(len(quiet.samples))
	put("throughput_rps", "1/s", completed/quiet.seconds, fmt.Sprintf("(%s, %d completed)", base, len(quiet.samples)))
	put("batch_qps", "1/s", float64(quiet.answers)/quiet.seconds, fmt.Sprintf("(%s, %d answers in %d batches)", base, quiet.answers, len(lat[cBatch])))
	put("server_cpu_ms_per_req", "ms", cpuMs/completed, fmt.Sprintf("(%s, %.0f ms CPU)", base, cpuMs))
}

// merge concatenates consecutive windows.
func merge(ws []*window) *window {
	m := &window{}
	for _, w := range ws {
		m.seconds += w.seconds
		m.samples = append(m.samples, w.samples...)
		m.attempted += w.attempted
		m.failed += w.failed
		m.answers += w.answers
		m.wrong = append(m.wrong, w.wrong...)
	}
	return m
}

func dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// checkInvariants asserts on the whole run's counters: one cold solve
// per created session and no warm restart ever falling back to cold.
func checkInvariants(c counters, sessions int) []string {
	var bad []string
	if int(c.coldSolves) != sessions {
		bad = append(bad, fmt.Sprintf("invariant: %v cold solves for %d sessions", c.coldSolves, sessions))
	}
	if c.coldFallbacks != 0 {
		bad = append(bad, fmt.Sprintf("invariant: %v cold fallbacks", c.coldFallbacks))
	}
	return bad
}

func byClass(win *window) [nClasses][]float64 {
	var out [nClasses][]float64
	for _, s := range win.samples {
		out[s.class] = append(out[s.class], s.ms)
	}
	return out
}

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
