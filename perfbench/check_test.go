package main

import (
	"testing"

	"infobus/internal/mop"
)

func TestMatch(t *testing.T) {
	for _, c := range []struct {
		pattern, subj string
		want          bool
	}{
		{"eq.*.quote", "eq.ibm.quote", true},
		{"eq.*.quote", "eq.ibm.trade", false},
		{"eq.*.quote", "eq.ibm.quote.x", false},
		{"news.>", "news.dj.ibm", true},
		{"news.>", "news", false},
		{"wip.lot.l001", "wip.lot.l001", true},
		{"wip.lot.l001", "wip.lot.l002", false},
		{"a.b", "a", false},
	} {
		if got := match(c.pattern, c.subj); got != c.want {
			t.Errorf("match(%q, %q) = %v, want %v", c.pattern, c.subj, got, c.want)
		}
	}
}

// delivery is one synthetic log entry: subscription index, seq, and an
// optional change to the object as received.
type delivery struct {
	sub    int
	seq    uint64
	mangle func(*mop.Object)
	subj   string // overrides the generated subject when set
}

// runLog feeds a synthetic delivery log for feed 0, seqs 1..n, to a checker
// with two subscriptions: "wip.lot.*" (index 0) and the exact subject of
// seq 1 (index 1).
func runLog(t *testing.T, n uint64, log []delivery) (report, []*subCheck) {
	t.Helper()
	cls, err := defineClasses()
	if err != nil {
		t.Fatal(err)
	}
	gen := newGenerator("guaranteed", 7, cls)
	chk := newChecker(gen, 1)
	first := gen.space.names[gen.subjectIndex(0, 1)]
	subs := []*subCheck{chk.subscribe("all", "wip.lot.*"), chk.subscribe("one", first)}
	for _, d := range log {
		si, obj := gen.object(0, d.seq)
		subj := gen.space.names[si]
		if d.subj != "" {
			subj = d.subj
		}
		if d.mangle != nil {
			d.mangle(obj)
		}
		chk.deliver(subs[d.sub], subj, obj)
	}
	return chk.finish([]uint64{n}), subs
}

// cleanLog is what a correct bus delivers for seqs 1..n.
func cleanLog(t *testing.T, n uint64) []delivery {
	cls, err := defineClasses()
	if err != nil {
		t.Fatal(err)
	}
	gen := newGenerator("guaranteed", 7, cls)
	first := gen.subjectIndex(0, 1)
	var log []delivery
	for seq := uint64(1); seq <= n; seq++ {
		log = append(log, delivery{sub: 0, seq: seq})
		if gen.subjectIndex(0, seq) == first {
			log = append(log, delivery{sub: 1, seq: seq})
		}
	}
	return log
}

func TestCheckerCleanLog(t *testing.T) {
	rep, _ := runLog(t, 60, cleanLog(t, 60))
	if rep.Failed != 0 || rep.Faults != (faults{}) {
		t.Fatalf("clean log flagged: %s", rep)
	}
	if rep.Published != 60 {
		t.Fatalf("published = %d, want 60", rep.Published)
	}
}

func TestCheckerFlagsEachFault(t *testing.T) {
	const n = 60
	drop := func(log []delivery, seq uint64) []delivery {
		var out []delivery
		for _, d := range log {
			if d.sub != 0 || d.seq != seq {
				out = append(out, d)
			}
		}
		return out
	}
	cases := []struct {
		name   string
		mutate func([]delivery) []delivery
		want   faults
	}{
		{"loss", func(l []delivery) []delivery { return drop(l, 10) }, faults{Lost: 1}},
		{"duplicate", func(l []delivery) []delivery {
			return append(l, delivery{sub: 0, seq: 20})
		}, faults{Duplicate: 1}},
		{"reorder", func(l []delivery) []delivery {
			// 31 arrives before 30 (the stream is otherwise in order).
			l = drop(l, 30)
			var out []delivery
			for _, d := range l {
				out = append(out, d)
				if d.sub == 0 && d.seq == 31 {
					out = append(out, delivery{sub: 0, seq: 30})
				}
			}
			return out
		}, faults{Reorder: 1}},
		{"corrupt field", func(l []delivery) []delivery {
			for i := range l {
				if l[i].sub == 0 && l[i].seq == 40 {
					l[i].mangle = func(o *mop.Object) { o.MustSet("qty", int64(-1)) }
				}
			}
			return l
		}, faults{Corrupt: 1}},
		{"wrong subject", func(l []delivery) []delivery {
			for i := range l {
				if l[i].sub == 0 && l[i].seq == 41 {
					l[i].subj = "wip.lot.zzz"
				}
			}
			return l
		}, faults{Corrupt: 1}},
		{"unsubscribed", func(l []delivery) []delivery {
			// Subscription 1 holds one exact subject; hand it every seq
			// published on another.
			cls, _ := defineClasses()
			gen := newGenerator("guaranteed", 7, cls)
			first := gen.subjectIndex(0, 1)
			for seq := uint64(2); seq <= n; seq++ {
				if gen.subjectIndex(0, seq) != first {
					return append(l, delivery{sub: 1, seq: seq})
				}
			}
			t.Fatal("every seq shares one subject")
			return nil
		}, faults{Unsubscribed: 1}},
		{"never published", func(l []delivery) []delivery {
			return append(l, delivery{sub: 0, seq: n + 5})
		}, faults{Corrupt: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, _ := runLog(t, n, c.mutate(cleanLog(t, n)))
			if rep.Faults != c.want {
				t.Fatalf("faults = %+v, want %+v (%s)", rep.Faults, c.want, rep)
			}
			if rep.Failed == 0 {
				t.Fatal("no publication counted as failed")
			}
		})
	}
}

func TestCheckerRejectsForeignObject(t *testing.T) {
	cls, err := defineClasses()
	if err != nil {
		t.Fatal(err)
	}
	gen := newGenerator("guaranteed", 7, cls)
	chk := newChecker(gen, 1)
	s := chk.subscribe("all", "wip.lot.*")
	if _, _, ok := chk.deliver(s, "wip.lot.l001", "not an object"); ok {
		t.Fatal("a string was taken for a publication")
	}
	if s.faults.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", s.faults.Corrupt)
	}
}

// TestGeneratorDeterministic pins that inputs are a pure function of the
// seed: the checker regenerates what the feed published.
func TestGeneratorDeterministic(t *testing.T) {
	cls, err := defineClasses()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"quotes", "stories", "guaranteed"} {
		a, b := newGenerator(kind, 42, cls), newGenerator(kind, 42, cls)
		c := newGenerator(kind, 43, cls)
		differ := false
		for seq := uint64(1); seq <= 20; seq++ {
			sa, oa := a.object(1, seq)
			sb, ob := b.object(1, seq)
			if sa != sb || !equalValue(oa, ob) || sa != a.subjectIndex(1, seq) {
				t.Fatalf("%s seq %d: same seed, different publication", kind, seq)
			}
			if _, oc := c.object(1, seq); !equalValue(oa, oc) {
				differ = true
			}
		}
		if !differ {
			t.Fatalf("%s: seeds 42 and 43 gave the same publications", kind)
		}
	}
}
