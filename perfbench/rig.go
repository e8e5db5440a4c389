package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"infobus"
	"infobus/internal/mop"
	"infobus/internal/transport"
)

// spec is one workload's make-up (README "Workloads").
type spec struct {
	name       string
	rate       float64 // paced publications per second, all feeds together
	feeds      int     // publisher goroutines
	guaranteed bool
	burst      bool // whether the run has a closed-loop burst phase
}

var specs = []spec{
	{name: "quotes", rate: 4000, feeds: 1, burst: true},
	// No burst: its loss from the oversize NAK retransmission varies from
	// run to run (README "Known faults").
	{name: "stories", rate: 800, feeds: 1},
	{name: "guaranteed", rate: 1000, feeds: 2, guaranteed: true, burst: true},
}

const (
	// maxOutstanding bounds a burst publisher: a quarter of the reliable
	// window of 1024, since the bus has no flow control and a publisher
	// more than a window ahead loses messages by design.
	maxOutstanding = 256
	ringSize       = 1 << 16 // completion slots, far above maxOutstanding
	// windows splits each phase: the latency percentiles and the delivery
	// rate are medians over windows, so one stall moves one window only.
	windows      = 5
	probeSubject = "bench.probe"
)

// state is what publishers and receivers share during a run.
type state struct {
	pacedN    uint64                  // per feed: paced seqs are 1..pacedN
	bounds    []uint64                // per feed: last seq of each paced phase
	due       [][]atomic.Int64        // per feed, seq-1: when a paced seq was due
	ring      [][]atomic.Int32        // per feed, seq%ringSize: deliveries still owed
	completed []atomic.Uint64         // per feed: publications fully delivered
	wake      []chan struct{}         // per feed: signalled on completion
	got       [][windows]atomic.Int64 // per paced phase and window: deliveries
	// Burst deliveries are counted per window of [burstStart, burstEnd).
	burstStart, burstEnd atomic.Int64
	burstWin             [windows]atomic.Int64
	tr                   atomic.Pointer[tracer]
}

func newState(sp spec, phaseSeqs []uint64) *state {
	st := &state{got: make([][windows]atomic.Int64, len(phaseSeqs))}
	for _, n := range phaseSeqs {
		st.pacedN += n
		st.bounds = append(st.bounds, st.pacedN)
	}
	st.due = make([][]atomic.Int64, sp.feeds)
	st.ring = make([][]atomic.Int32, sp.feeds)
	st.completed = make([]atomic.Uint64, sp.feeds)
	st.wake = make([]chan struct{}, sp.feeds)
	for f := range st.due {
		st.due[f] = make([]atomic.Int64, st.pacedN)
		st.ring[f] = make([]atomic.Int32, ringSize)
		st.wake[f] = make(chan struct{}, 1)
	}
	return st
}

// phaseOf returns the paced phase and window a seq belongs to; phase -1
// for burst seqs.
func (st *state) phaseOf(seq uint64) (int, int) {
	var lo uint64
	for i, b := range st.bounds {
		if seq <= b {
			return i, int((seq - lo - 1) * windows / (b - lo))
		}
		lo = b
	}
	return -1, 0
}

// delivered returns the deliveries of paced phase p so far.
func (st *state) delivered(p int) int64 {
	var n int64
	for w := range st.got[p] {
		n += st.got[p][w].Load()
	}
	return n
}

func pubID(feed int, seq uint64) uint64 { return uint64(feed)<<40 | seq }

// receiver drains one subscription.
type receiver struct {
	sc  *subCheck
	lat [][windows][]int64 // per paced phase and window: due -> receive, ns
}

// rig is one built topology.
type rig struct {
	sp       spec
	gen      *generator
	chk      *checker
	st       *state
	m        *meter
	segs     []transport.Segment
	hosts    []*infobus.Host // subscriber hosts, then the feed host
	feedHost *infobus.Host
	feeds    []*infobus.Bus
	feedEP   *meteredEndpoint
	router   *infobus.Router
	recvs    []*receiver
	wg       sync.WaitGroup
	dir      string // ledger directory (guaranteed)
	probes   []chan struct{}
	// patterns and farPatterns are every timed subscription's pattern, and
	// those of the host behind the router, for the layer replay.
	patterns, farPatterns []string
}

// setup builds the workload's topology, subscribes, and publishes probes
// until every subscriber host has received one: interest has crossed the
// router and every stream has passed its join grace.
func setup(sp spec, gen *generator, st *state, m *meter, workDir string) (*rig, error) {
	r := &rig{sp: sp, gen: gen, st: st, m: m, chk: newChecker(gen, sp.feeds)}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	newSeg := func() meteredSegment {
		s := infobus.NewUDPSegment()
		r.segs = append(r.segs, s)
		return meteredSegment{Segment: s, m: m}
	}
	segA := newSeg()
	host := func(seg transport.Segment, name string, cfg infobus.HostConfig) (*infobus.Host, error) {
		h, err := infobus.NewHost(seg, name, cfg)
		if err != nil {
			return nil, fmt.Errorf("host %s: %w", name, err)
		}
		r.hosts = append(r.hosts, h)
		return h, nil
	}
	// subscriber attaches one host subscribing each pattern separately.
	subscriber := func(seg transport.Segment, name, group string, patterns []string) error {
		h, err := host(seg, name, infobus.HostConfig{})
		if err != nil {
			return err
		}
		bus, err := h.NewBus(name)
		if err != nil {
			return err
		}
		for _, p := range patterns {
			sub, err := bus.Subscribe(p)
			if err != nil {
				return err
			}
			rc := &receiver{sc: r.chk.subscribe(group, p), lat: make([][windows][]int64, len(st.bounds))}
			r.recvs = append(r.recvs, rc)
			r.wg.Add(1)
			go r.receive(rc, sub)
		}
		r.patterns = append(r.patterns, patterns...)
		return r.probe(bus)
	}
	keys := gen.space.keys
	switch sp.name {
	case "quotes":
		// Watchlists take evenly spaced popularity ranks, so their share
		// of the traffic is the same for every seed; the seed picks the
		// symbols' names, hence which symbol holds which rank.
		var watch, far []string
		for i := 0; i < watchlistSize; i++ {
			watch = append(watch, "eq."+keys[i*len(keys)/watchlistSize]+".quote")
		}
		for i := 0; i < farWatchSize; i++ {
			far = append(far, "eq."+keys[2+i*len(keys)/farWatchSize]+".quote")
		}
		segB := newSeg()
		if err := subscriber(segA, "wild", "wildcard", []string{"eq.*.quote"}); err != nil {
			return nil, err
		}
		if err := subscriber(segA, "watch", "watchlist", watch); err != nil {
			return nil, err
		}
		rt, err := infobus.NewRouter(infobus.RouterOptions{Name: "r"},
			infobus.RouterAttachment{Segment: segA, Name: "a"}, infobus.RouterAttachment{Segment: segB, Name: "b"})
		if err != nil {
			return nil, err
		}
		r.router = rt
		if err := subscriber(segB, "far", "behind-router", far); err != nil {
			return nil, err
		}
		r.farPatterns = far
	case "stories":
		if err := subscriber(segA, "news", "news", []string{"news.>"}); err != nil {
			return nil, err
		}
	case "guaranteed":
		if err := subscriber(segA, "wip", "wip", []string{"wip.lot.*"}); err != nil {
			return nil, err
		}
	}
	var cfg infobus.HostConfig
	if sp.guaranteed {
		dir, err := os.MkdirTemp(workDir, "ledger-")
		if err != nil {
			return nil, err
		}
		r.dir = dir
		cfg.LedgerPath = filepath.Join(dir, "feed.ledger")
		cfg.LedgerSync = true
	}
	feedSeg := segA
	feedSeg.capture = true
	feedSeg.made = func(e *meteredEndpoint) { r.feedEP = e }
	fh, err := host(feedSeg, "feed", cfg)
	if err != nil {
		return nil, err
	}
	r.feedHost = fh
	for f := 0; f < sp.feeds; f++ {
		b, err := fh.NewBus(fmt.Sprintf("feed%d", f))
		if err != nil {
			return nil, err
		}
		r.feeds = append(r.feeds, b)
	}
	if err := r.awaitProbes(); err != nil {
		return nil, err
	}
	ok = true
	return r, nil
}

// probe subscribes a host to the probe subject and drains it for the life
// of the host.
func (r *rig) probe(bus *infobus.Bus) error {
	sub, err := bus.Subscribe(probeSubject)
	if err != nil {
		return err
	}
	seen := make(chan struct{})
	r.probes = append(r.probes, seen)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		first := true
		for range sub.C {
			if first {
				close(seen)
				first = false
			}
		}
	}()
	return nil
}

func (r *rig) awaitProbes() error {
	probe := mop.MustNew(r.gen.cls.quote)
	deadline := time.Now().Add(20 * time.Second)
	for _, seen := range r.probes {
		for {
			if err := r.feeds[0].Publish(probeSubject, probe); err != nil {
				return fmt.Errorf("probe: %w", err)
			}
			select {
			case <-seen:
			case <-time.After(5 * time.Millisecond):
				if time.Now().After(deadline) {
					return errors.New("probe: a subscriber heard nothing within 20s")
				}
				continue
			}
			break
		}
	}
	return nil
}

// receive drains one subscription: stamps the receive, hands the event to
// the checker, and accounts it to its phase.
func (r *rig) receive(rc *receiver, sub *infobus.Subscription) {
	defer r.wg.Done()
	st := r.st
	for ev := range sub.C {
		t := clock()
		feed, seq, ok := r.chk.deliver(rc.sc, ev.Subject.String(), ev.Value)
		if !ok {
			continue
		}
		if tr := st.tr.Load(); tr != nil {
			tr.add(span{kind: spanTransit, id: pubID(feed, seq), end: t})
		}
		if p, w := st.phaseOf(seq); p >= 0 {
			rc.lat[p][w] = append(rc.lat[p][w], t-st.due[feed][seq-1].Load())
			st.got[p][w].Add(1)
		} else if start, end := st.burstStart.Load(), st.burstEnd.Load(); t >= start && t < end {
			st.burstWin[(t-start)*windows/(end-start)].Add(1)
		}
		if st.ring[feed][seq%ringSize].Add(-1) == 0 {
			st.completed[feed].Add(1)
			select {
			case st.wake[feed] <- struct{}{}:
			default:
			}
		}
	}
}

// publish sends one generated publication from a feed, timing the call.
func (r *rig) publish(feed int, seq uint64, si int, obj *mop.Object) (int64, error) {
	tr := r.st.tr.Load()
	id := pubID(feed, seq)
	if r.sp.feeds == 1 {
		r.feedEP.pub.Store(id)
	}
	subj := r.gen.space.names[si]
	t1 := clock()
	var err error
	if r.sp.guaranteed {
		_, err = r.feeds[feed].PublishGuaranteed(subj, obj)
	} else {
		err = r.feeds[feed].Publish(subj, obj)
	}
	t2 := clock()
	if tr != nil {
		tr.add(span{kind: spanPublish, id: id, start: t1, end: t2})
	}
	return t2 - t1, err
}

// owe records how many deliveries a publication should produce before it
// is published; a publication nobody wants completes at once.
func (r *rig) owe(feed int, seq uint64, si int) {
	n := int32(r.chk.expected(si))
	r.st.ring[feed][seq%ringSize].Store(n)
	if n == 0 {
		r.st.completed[feed].Add(1)
	}
}

// close tears the topology down and waits for every receiver to stop.
// Close errors are dropped: a failed teardown changes no reported figure,
// and the checker runs on what was delivered before it.
func (r *rig) close() {
	if r.router != nil {
		_ = r.router.Close()
	}
	for _, h := range r.hosts {
		_ = h.Close()
	}
	for _, s := range r.segs {
		_ = s.Close()
	}
	r.wg.Wait()
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
}
