package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"infobus"
	"infobus/internal/busproto"
	"infobus/internal/daemon"
	"infobus/internal/ledger"
	"infobus/internal/mop"
	"infobus/internal/reliable"
	"infobus/internal/subject"
	"infobus/internal/wire"
)

// The layer replay feeds the publications captured in the traced phase
// through each layer's public functions one at a time, so each layer's
// cost is measured alone on the workload's own inputs.

// timing is one layer's replay figure.
type timing struct {
	ns     float64 // wall time per call
	cpuNs  float64 // process CPU per call (covers helper goroutines)
	allocs float64 // heap allocations per call
}

// timeLoop calls op on inputs 0..n-1 cyclically until the budget is spent,
// checking the clock every few calls so the check stays off the figure.
func timeLoop(budget time.Duration, n int, op func(i int)) timing {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	ops := 0
	for ops == 0 || time.Since(t0) < budget {
		for k := 0; k < 16; k++ {
			op(ops % n)
			ops++
		}
	}
	el := time.Since(t0)
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	return timing{
		ns:     float64(el.Nanoseconds()) / float64(ops),
		cpuNs:  cpu * 1e9 / float64(ops),
		allocs: float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
	}
}

// captured is one publication taken off the feed host's broadcast frames.
type captured struct {
	raw   []byte // encoded envelope
	env   busproto.Envelope
	subj  subject.Subject
	value mop.Value
	obj   *mop.Object // regenerated from (feed, seq)
}

type replayResult struct {
	layers       map[string]timing
	payloadBytes float64
	envBytes     float64
}

func replay(r *rig, secs float64) (*replayResult, error) {
	caps, err := captures(r)
	if err != nil {
		return nil, err
	}
	n := len(caps)
	res := &replayResult{layers: make(map[string]timing)}
	for _, c := range caps {
		res.payloadBytes += float64(len(c.env.Payload)) / float64(n)
		res.envBytes += float64(len(c.raw)) / float64(n)
	}
	// Eleven layers share the budget.
	budget := time.Duration(secs / 11 * float64(time.Second))

	res.layers["subject.parse"] = timeLoop(budget, n, func(i int) {
		_, _ = subject.Parse(caps[i].env.Subject)
	})
	trie := subject.NewTrie[int]()
	for i, p := range r.patterns {
		trie.Add(subject.MustParsePattern(p), i)
	}
	mc := subject.NewMatchCache[int](0)
	res.layers["subject.match"] = timeLoop(budget, n, func(i int) {
		_ = mc.Match(trie, caps[i].subj)
	})
	res.layers["wire.marshal"] = timeLoop(budget, n, func(i int) {
		_, _ = wire.Marshal(caps[i].obj)
	})
	reg, cache := mop.NewRegistry(), wire.NewTypeCache(0)
	res.layers["wire.unmarshal"] = timeLoop(budget, n, func(i int) {
		_, _ = wire.UnmarshalWith(caps[i].env.Payload, reg, cache)
	})
	var buf []byte
	res.layers["busproto.encode"] = timeLoop(budget, n, func(i int) {
		buf = busproto.AppendEncode(buf[:0], caps[i].env)
	})
	res.layers["busproto.decode"] = timeLoop(budget, n, func(i int) {
		_, _ = busproto.Decode(caps[i].raw)
	})
	res.layers["busproto.peek"] = timeLoop(budget, n, func(i int) {
		_, _ = busproto.Peek(caps[i].raw)
	})
	res.layers["bench.generate"] = timeLoop(budget, n, func(i int) {
		feed, seq, _ := identify(caps[i].value)
		_, _ = r.gen.object(feed, seq)
	})
	res.layers["bench.check"] = timeLoop(budget, n, func(i int) {
		feed, seq, _ := identify(caps[i].value)
		_, want := r.gen.object(feed, seq)
		_ = equalValue(want, caps[i].value)
	})
	if res.layers["reliable.publish_recv"], err = replayReliable(caps, budget); err != nil {
		return nil, err
	}
	if res.layers["daemon.publish_deliver"], err = replayDaemon(caps, budget); err != nil {
		return nil, err
	}
	if res.layers["router.inject"], err = replayRouter(r, caps, budget); err != nil {
		return nil, err
	}
	if res.layers["ledger.append_sync"], err = replayLedger(caps, budget); err != nil {
		return nil, err
	}
	return res, nil
}

// captures decodes the frames the feed host broadcast while tracing was on
// into the publications they carry, probes and protocol frames aside.
func captures(r *rig) ([]captured, error) {
	r.m.captureMu.Lock()
	frames := r.m.capture
	r.m.captureMu.Unlock()
	reg := mop.NewRegistry()
	var out []captured
	for _, f := range frames {
		for _, raw := range reliable.DecodeDataPayloads(f) {
			env, err := busproto.Decode(raw)
			if err != nil || env.Subject == "" || env.Subject == probeSubject || env.Payload == nil {
				continue
			}
			v, err := wire.Unmarshal(env.Payload, reg)
			if err != nil {
				return nil, fmt.Errorf("captured payload: %w", err)
			}
			feed, seq, ok := identify(v)
			if !ok {
				continue
			}
			_, obj := r.gen.object(feed, seq)
			c := captured{raw: append([]byte(nil), raw...), env: env, value: v, obj: obj}
			if c.subj, err = subject.Parse(env.Subject); err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("no publications captured")
	}
	return out, nil
}

// replayReliable times Publish on one reliable.Conn to the receive on a
// second, over a UDP segment of their own, one message at a time.
func replayReliable(caps []captured, budget time.Duration) (timing, error) {
	seg := infobus.NewUDPSegment()
	defer seg.Close()
	epA, err := seg.NewEndpoint("a")
	if err != nil {
		return timing{}, err
	}
	epB, err := seg.NewEndpoint("b")
	if err != nil {
		return timing{}, err
	}
	a, b := reliable.New(epA, reliable.Config{}), reliable.New(epB, reliable.Config{})
	defer a.Close()
	defer b.Close()
	var failed error
	t := timeLoop(budget, len(caps), func(i int) {
		if failed != nil {
			return
		}
		if err := a.Publish(caps[i].raw); err != nil {
			failed = err
			return
		}
		select {
		case <-b.Recv():
		case <-time.After(5 * time.Second):
			failed = errors.New("reliable replay: no delivery within 5s")
		}
	})
	return t, failed
}

// replayDaemon times a daemon's local publish through to its own client's
// queue: envelope encode, local match and enqueue, plus the broadcast to a
// segment with no other member.
func replayDaemon(caps []captured, budget time.Duration) (timing, error) {
	seg := infobus.NewUDPSegment()
	defer seg.Close()
	ep, err := seg.NewEndpoint("d")
	if err != nil {
		return timing{}, err
	}
	d := daemon.New(ep, reliable.Config{}, daemon.Options{})
	defer d.Close()
	c, err := d.NewClient("replay")
	if err != nil {
		return timing{}, err
	}
	if err := c.Subscribe(subject.MustParsePattern(">")); err != nil {
		return timing{}, err
	}
	stop := make(chan struct{})
	defer close(stop)
	var failed error
	t := timeLoop(budget, len(caps), func(i int) {
		if failed != nil {
			return
		}
		if err := d.Publish(caps[i].subj, caps[i].env.Payload); err != nil {
			failed = err
			return
		}
		if _, ok := c.Next(stop); !ok {
			failed = errors.New("daemon replay: client closed")
		}
	})
	return t, failed
}

// replayRouter times Router.Inject of the captured envelopes into a router
// whose far segment holds a host subscribed as the workload's far host is
// (every timed pattern when the workload has no router).
func replayRouter(r *rig, caps []captured, budget time.Duration) (timing, error) {
	segA, segB := infobus.NewUDPSegment(), infobus.NewUDPSegment()
	defer segA.Close()
	defer segB.Close()
	rt, err := infobus.NewRouter(infobus.RouterOptions{Name: "replay"},
		infobus.RouterAttachment{Segment: segA, Name: "a"}, infobus.RouterAttachment{Segment: segB, Name: "b"})
	if err != nil {
		return timing{}, err
	}
	defer rt.Close()
	// Subscription drains end when the far host closes, which runs first.
	var wg sync.WaitGroup
	defer wg.Wait()
	far, err := infobus.NewHost(segB, "far", infobus.HostConfig{})
	if err != nil {
		return timing{}, err
	}
	defer far.Close()
	bus, err := far.NewBus("far")
	if err != nil {
		return timing{}, err
	}
	patterns := r.farPatterns
	if len(patterns) == 0 {
		patterns = r.patterns
	}
	for _, p := range patterns {
		sub, err := bus.Subscribe(p)
		if err != nil {
			return timing{}, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sub.C {
			}
		}()
	}
	// Wait until the far host's interest has reached the router.
	probe := subject.MustParse(farSubject(patterns))
	deadline := time.Now().Add(10 * time.Second)
	for !rt.WantsOn("b", probe) {
		if time.Now().After(deadline) {
			return timing{}, errors.New("router replay: interest never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var failed error
	t := timeLoop(budget, len(caps), func(i int) {
		if err := rt.Inject("a", "udp:127.0.0.1:9", caps[i].raw); err != nil && failed == nil {
			failed = err
		}
	})
	return t, failed
}

// farSubject turns a pattern into a concrete subject it matches.
func farSubject(patterns []string) string {
	p := patterns[0]
	out := []byte(p)
	for i := range out {
		if out[i] == '*' || out[i] == '>' {
			out[i] = 'x'
		}
	}
	return string(out)
}

// replayLedger times a synced append of each captured payload, one at a
// time, in a fresh ledger.
func replayLedger(caps []captured, budget time.Duration) (timing, error) {
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "run"), "replay-ledger-")
	if err != nil {
		return timing{}, err
	}
	defer os.RemoveAll(dir)
	l, err := ledger.Open(filepath.Join(dir, "replay.ledger"), ledger.Options{Sync: true})
	if err != nil {
		return timing{}, err
	}
	var failed error
	t := timeLoop(budget, len(caps), func(i int) {
		if _, err := l.Append(caps[i].env.Subject, caps[i].env.Payload); err != nil && failed == nil {
			failed = err
		}
	})
	if err := l.Close(); err != nil && failed == nil {
		failed = err
	}
	return t, failed
}
