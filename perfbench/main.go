// Command perfbench measures the Information Bus on the path applications
// use: Bus.Publish of a self-describing object, through the wire codec,
// the bus envelope, the reliable protocol, real UDP sockets on the loopback
// interface, the receiving daemon and core dispatch, to a receive on
// Subscription.C. See README.md for the workloads, metrics and flags.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"infobus"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line printed last for each workload.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "quotes, stories, guaranteed or all")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || *seconds > 600 {
		return fmt.Errorf("--seconds %d: want 1..600", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	var todo []spec
	for _, sp := range specs {
		if *workload == "all" || *workload == sp.name {
			todo = append(todo, sp)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("--workload %q: want quotes, stories, guaranteed or all", *workload)
	}
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d go=%s transport=udp-loopback\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, sp := range todo {
		res, err := runWorkload(sp, *seed, float64(*seconds), *trace == 1, stdout)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			fmt.Fprintf(stdout, "%s %s = %.6g %s\n", sp.name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return nil
}

const setups = 9 // set-up repetitions; setup_s is their median

// pacedPhase is one open-loop measurement interval.
type pacedPhase struct {
	seqs   uint64 // per feed
	expect int64  // deliveries owed, by the checker's matcher
	traced bool
	// measured
	deliveries int64
	elapsed    float64          // s, phase start to its last delivery
	cpu        float64          // process user+sys, s
	cpuPerMsg  [windows]float64 // process user+sys per delivery, µs, per window
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
	meter      meterCounts
	counters   map[string]int64
	pubNs      []int64
	late       []int64
	lat        [windows][]int64 // sorted, per window
}

// latency returns the median over windows of each window's percentile p.
func (ph *pacedPhase) latency(p float64) float64 {
	v := make([]float64, 0, windows)
	for _, w := range ph.lat {
		v = append(v, pct(w, p))
	}
	return median(v)
}

func runWorkload(sp spec, seed uint64, seconds float64, traced bool, stdout io.Writer) (*result, error) {
	cls, err := defineClasses()
	if err != nil {
		return nil, err
	}
	gen := newGenerator(sp.name, seed, cls)
	perFeed := sp.rate / float64(sp.feeds)
	// Split the measured seconds between phases.
	var pacedSecs []float64
	var burstSecs float64
	switch {
	case !traced && sp.burst:
		pacedSecs, burstSecs = []float64{0.6 * seconds}, 0.4*seconds
	case !traced:
		pacedSecs = []float64{seconds}
	case sp.burst:
		pacedSecs, burstSecs = []float64{0.3 * seconds, 0.3 * seconds}, 0.2*seconds
	default:
		pacedSecs = []float64{0.35 * seconds, 0.35 * seconds}
	}
	phases := make([]*pacedPhase, len(pacedSecs))
	seqs := make([]uint64, len(pacedSecs))
	for i, s := range pacedSecs {
		seqs[i] = uint64(math.Round(s * perFeed))
		phases[i] = &pacedPhase{seqs: seqs[i], traced: traced && i == 1}
	}
	st := newState(sp, seqs)
	workDir, err := filepath.Abs(filepath.Join(".bench_build", "run"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	m := &meter{}

	var setupTimes []float64
	var r *rig
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		rr, err := setup(sp, gen, st, m, workDir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i < setups-1 {
			rr.close()
			continue
		}
		r = rr
	}
	closed := false
	defer func() {
		if !closed {
			r.close()
		}
	}()

	var lo uint64
	var pubErrs uint64
	var tr *tracer
	var sampler *depthSampler
	for i, ph := range phases {
		for s := lo + 1; s <= lo+ph.seqs; s++ {
			for f := 0; f < sp.feeds; f++ {
				ph.expect += int64(r.chk.expected(gen.subjectIndex(f, s)))
			}
		}
		if ph.traced {
			tr = newTracer()
			st.tr.Store(tr)
			m.tr.Store(tr)
			sampler = startDepthSampler(r)
		}
		n, err := r.runPaced(i, lo, ph, perFeed)
		if err != nil {
			return nil, err
		}
		pubErrs += n
		lo += ph.seqs
		// Only the traced paced phase records spans; the burst runs
		// untraced so its delivery rate matches an untraced run's.
		st.tr.Store(nil)
		m.tr.Store(nil)
	}
	burst := burstResult{seqs: make([]uint64, sp.feeds)}
	if burstSecs > 0 {
		burst, err = r.runBurst(lo, burstSecs)
		if err != nil {
			return nil, err
		}
		pubErrs += burst.pubErrs
	}
	if sp.guaranteed {
		if err := r.awaitLedgerDrained(30 * time.Second); err != nil {
			return nil, err
		}
	}
	pendingMax := int64(0)
	if sampler != nil {
		pendingMax = sampler.stop()
	}
	var rep *replayResult
	if traced {
		rep, err = replay(r, seconds*0.2)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	published := make([]uint64, sp.feeds)
	for f := range published {
		published[f] = lo + burst.seqs[f]
	}
	r.close()
	closed = true
	for i, ph := range phases {
		for w := range ph.lat {
			for _, rc := range r.recvs {
				ph.lat[w] = append(ph.lat[w], rc.lat[i][w]...)
			}
			slices.Sort(ph.lat[w])
		}
	}
	chk := r.chk.finish(published)
	fmt.Fprintln(stdout, sp.name, chk.String())

	res := &result{
		Correct:   chk.Faults.wrong() == 0,
		Attempted: chk.Published,
		Failed:    chk.Failed + pubErrs,
		Metrics:   make(map[string]metric),
	}
	if pubErrs > 0 {
		fmt.Fprintf(stdout, "%s: %d publish calls returned an error\n", sp.name, pubErrs)
	}
	ph := phases[0]
	deliverRate := burst.rate
	if burstSecs == 0 {
		// No closed-loop phase: the paced phase's delivered rate.
		deliverRate = float64(ph.deliveries) / ph.elapsed
	}
	if !traced {
		// Time figures follow the host: its hypervisor takes 10-20 % of
		// the CPU in spells, and CPU time per message moves with those
		// spells too. They are printed for the record and reported by the
		// traced run; the bounded metrics are counts and memory.
		fmt.Fprintf(stdout, "%s tracked: deliver_rate = %.6g msg/s, publish_p50 = %.6g us, cpu = %.6g us/msg, "+
			"latency p50/p90/p99 = %.6g/%.6g/%.6g us\n", sp.name, deliverRate, pct(ph.pubNs, 50)/1e3,
			median(ph.cpuPerMsg[:]), ph.latency(50)/1e3, ph.latency(90)/1e3, ph.latency(99)/1e3)
		set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
		set("allocs_per_msg", float64(ph.mallocs)/float64(ph.deliveries), "count")
		set("alloc_bytes_per_msg", float64(ph.allocBytes)/float64(ph.deliveries), "B")
		set("wire_bytes_per_msg", float64(ph.meter.Bytes)/float64(ph.deliveries), "B")
		set("max_rss_mb", float64(rusage().Maxrss)/1024, "MB")
		set("setup_s", median(setupTimes), "s")
		return res, nil
	}
	tr.fillTransits()
	path, err := tr.write(filepath.Join(".bench_build", "spans"), fmt.Sprintf("%s-seed%d.txt", sp.name, seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s: spans written to %s\n", sp.name, path)
	layerMetrics(res, sp, phases[0], phases[1], burst, tr, rep, pendingMax)
	res.Metrics["deliver_rate"] = metric{deliverRate, "msg/s"}
	return res, nil
}

// runPaced publishes seqs lo+1..lo+ph.seqs from every feed on a fixed
// schedule, timing each from when it was due, and waits for their
// deliveries; it returns the failed publish calls.
func (r *rig) runPaced(idx int, lo uint64, ph *pacedPhase, perFeed float64) (uint64, error) {
	st := r.st
	feeds := r.sp.feeds
	counters0 := r.counters()
	m0 := r.m.counts()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	begin := clock()
	var wg sync.WaitGroup
	pubNs := make([][]int64, feeds)
	late := make([][]int64, feeds)
	pubErrs := make([]uint64, feeds)
	errs := make([]error, feeds)
	// marks[w] is the process CPU when feed 0 publishes the first seq of
	// window w; the last mark is taken once the phase's deliveries are in.
	var marks [windows + 1]float64
	for f := 0; f < feeds; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			p, err := newPacer(time.Duration(float64(time.Second) / perFeed))
			if err != nil {
				errs[f] = err
				return
			}
			defer p.close()
			seq := lo
			si, obj := r.gen.object(f, seq+1)
			for k := int64(1); k <= int64(ph.seqs); {
				ticks, err := p.wait()
				if err != nil {
					errs[f] = err
					return
				}
				for ; ticks > 0 && k <= int64(ph.seqs); ticks-- {
					if w := (k - 1) * windows / int64(ph.seqs); f == 0 && (k-1)*windows%int64(ph.seqs) < windows {
						marks[w] = cpuSeconds()
					}
					seq++
					due := p.due(k)
					r.owe(f, seq, si)
					st.due[f][seq-1].Store(due)
					late[f] = append(late[f], clock()-due)
					ns, err := r.publish(f, seq, si, obj)
					pubNs[f] = append(pubNs[f], ns)
					if err != nil {
						pubErrs[f]++
					}
					if k++; k <= int64(ph.seqs) {
						// The next object is ready before its tick.
						si, obj = r.gen.object(f, seq+1)
					}
				}
			}
		}(f)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	// Wait for the deliveries owed; a loss shows up in the checker.
	deadline := time.Now().Add(5 * time.Second)
	for st.delivered(idx) < ph.expect && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	marks[windows] = cpuSeconds()
	for w := range ph.cpuPerMsg {
		ph.cpuPerMsg[w] = (marks[w+1] - marks[w]) * 1e6 / float64(st.got[idx][w].Load())
	}
	ph.elapsed = float64(clock()-begin) / 1e9
	ph.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	ph.deliveries = st.delivered(idx)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcs = ms1.NumGC - ms0.NumGC
	ph.meter = r.m.counts().sub(m0)
	ph.counters = diffCounters(r.counters(), counters0)
	var nerr uint64
	for f := 0; f < feeds; f++ {
		ph.pubNs = append(ph.pubNs, pubNs[f]...)
		ph.late = append(ph.late, late[f]...)
		nerr += pubErrs[f]
	}
	slices.Sort(ph.pubNs)
	slices.Sort(ph.late)
	return nerr, nil
}

type burstResult struct {
	seqs     []uint64 // per feed: burst publications made
	rate     float64  // deliveries/s: median over windows of the burst
	pubErrs  uint64
	meter    meterCounts
	counters map[string]int64
}

// runBurst runs the closed loop: each feed keeps at most maxOutstanding
// publications not yet delivered to every subscriber that wants them.
func (r *rig) runBurst(lo uint64, secs float64) (burstResult, error) {
	st := r.st
	feeds := r.sp.feeds
	res := burstResult{seqs: make([]uint64, feeds)}
	counters0 := r.counters()
	m0 := r.m.counts()
	start := clock()
	end := start + int64(secs*1e9)
	st.burstStart.Store(start)
	st.burstEnd.Store(end)
	var wg sync.WaitGroup
	errs := make([]error, feeds)
	pubErrs := make([]uint64, feeds)
	lag := r.lagMeter()
	for f := 0; f < feeds; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			seq := lo
			// Re-check the lag at least every millisecond while blocked;
			// completions wake the publisher sooner.
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for clock() < end {
				stall := time.Now().Add(5 * time.Second)
				for seq-st.completed[f].Load() >= maxOutstanding || lag.behind() >= int64(maxOutstanding*feeds) {
					if time.Now().After(stall) {
						errs[f] = fmt.Errorf("burst: feed %d stalled with %d publications outstanding",
							f, seq-st.completed[f].Load())
						return
					}
					select {
					case <-st.wake[f]:
					case <-tick.C:
					}
				}
				seq++
				lag.published.Add(1)
				si, obj := r.gen.object(f, seq)
				r.owe(f, seq, si)
				if _, err := r.publish(f, seq, si, obj); err != nil {
					pubErrs[f]++
				}
				res.seqs[f]++
			}
		}(f)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return res, err
	}
	// Drain: every burst publication should complete.
	deadline := time.Now().Add(10 * time.Second)
	for f := 0; f < feeds; f++ {
		for st.completed[f].Load() < lo+res.seqs[f] && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	rates := make([]float64, windows)
	for w := range st.burstWin {
		rates[w] = float64(st.burstWin[w].Load()) * windows / secs
	}
	res.rate = median(rates)
	res.meter = r.m.counts().sub(m0)
	res.counters = diffCounters(r.counters(), counters0)
	for _, n := range pubErrs {
		res.pubErrs += n
	}
	return res, nil
}

// lagMeter tracks how far the slowest receiving node (every subscriber
// daemon and the router) is behind the burst publishers, from the nodes'
// exported counters. Completions alone bound only the publications some
// subscriber wants; a node that receives every publication and keeps few
// would otherwise fall more than a window behind.
type lagMeter struct {
	published atomic.Int64
	nodes     []func() int64
	base      []int64
}

func (r *rig) lagMeter() *lagMeter {
	l := &lagMeter{}
	for _, h := range r.hosts {
		if h == r.feedHost {
			continue
		}
		d := h.Daemon()
		l.nodes = append(l.nodes, func() int64 { return int64(d.Stats().Inbound) })
	}
	if rt := r.router; rt != nil {
		l.nodes = append(l.nodes, func() int64 {
			s := rt.Stats()
			return int64(s.Forwarded + s.Suppressed)
		})
	}
	for _, n := range l.nodes {
		l.base = append(l.base, n())
	}
	return l
}

// behind returns the burst publications the slowest node has yet to
// process.
func (l *lagMeter) behind() int64 {
	var worst int64
	pub := l.published.Load()
	for i, n := range l.nodes {
		worst = max(worst, pub-(n()-l.base[i]))
	}
	return worst
}

// awaitLedgerDrained waits until every guaranteed publication has been
// acknowledged and left the feed host's ledger.
func (r *rig) awaitLedgerDrained(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for len(r.feedHost.PendingGuaranteed()) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("ledger still holds %d unacknowledged publications after %v",
				len(r.feedHost.PendingGuaranteed()), limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// counters sums the exported counters of every host and the router by
// name; reliable counters are summed over all connections by suffix.
func (r *rig) counters() map[string]int64 {
	out := make(map[string]int64)
	add := func(snap []infobus.MetricValue) {
		for _, mv := range snap {
			name := mv.Name
			if strings.HasPrefix(name, "reliable.") {
				name = "reliable." + name[strings.LastIndexByte(name, '.')+1:]
			}
			out[name] += mv.Value
		}
	}
	for _, h := range r.hosts {
		add(h.Metrics().Snapshot())
	}
	if r.router != nil {
		add(r.router.Metrics().Snapshot())
	}
	return out
}

func diffCounters(a, b map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(a))
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// pct is the nearest-rank percentile of sorted values.
func pct(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// depthSampler polls the subscriber daemons' queued deliveries.
type depthSampler struct {
	stopc chan struct{}
	done  chan int64
}

func startDepthSampler(r *rig) *depthSampler {
	d := &depthSampler{stopc: make(chan struct{}), done: make(chan int64, 1)}
	go func() {
		var peak int64
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-d.stopc:
				d.done <- peak
				return
			case <-t.C:
				for _, h := range r.hosts {
					var sum int64
					for _, n := range h.Daemon().LaneDepths() {
						sum += n
					}
					peak = max(peak, sum)
				}
			}
		}
	}()
	return d
}

func (d *depthSampler) stop() int64 {
	close(d.stopc)
	return <-d.done
}
