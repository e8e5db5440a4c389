package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"infobus/internal/mop"
)

// The output checker works apart from the program under test: expected
// deliveries come from its own wildcard matcher over the generated subjects
// (never subject.Trie), and every received object is compared field by
// field with the object regenerated from (seed, feed, seq).

// source regenerates what was published; *generator implements it.
type source interface {
	subjectIndex(feed int, seq uint64) int
	object(feed int, seq uint64) (int, *mop.Object)
	subjectNames() []string
}

func (g *generator) subjectNames() []string { return g.space.names }

// match reports whether a subscription pattern matches a concrete subject:
// "*" takes exactly one element, ">" one or more trailing elements.
func match(pattern, subj string) bool {
	pe := strings.Split(pattern, ".")
	se := strings.Split(subj, ".")
	for i, e := range pe {
		switch {
		case e == ">":
			return len(se) > i
		case i >= len(se):
			return false
		case e != "*" && e != se[i]:
			return false
		}
	}
	return len(pe) == len(se)
}

// faults counts what the checker flagged.
type faults struct {
	Lost, Duplicate, Reorder, Corrupt, Unsubscribed uint64
}

func (f *faults) add(g faults) {
	f.Lost += g.Lost
	f.Duplicate += g.Duplicate
	f.Reorder += g.Reorder
	f.Corrupt += g.Corrupt
	f.Unsubscribed += g.Unsubscribed
}

// wrong counts flagged deliveries: everything but losses.
func (f faults) wrong() uint64 { return f.Duplicate + f.Reorder + f.Corrupt + f.Unsubscribed }

// pubKey names one publication.
type pubKey struct {
	feed int
	seq  uint64
}

// subCheck is the state for one subscription. Only the goroutine draining
// that subscription touches it.
type subCheck struct {
	group    string
	patterns []string
	got      [][]uint64 // per feed: delivered seqs in arrival order
	last     []uint64   // per feed: highest seq delivered
	sorted   bool       // got is in strictly increasing order
	faults   faults
	bad      []pubKey // publications with a flagged fault
}

type checker struct {
	src    source
	feeds  int
	subs   []*subCheck
	wantBy [][]int // subject index -> subscriptions that should get it
}

func newChecker(src source, feeds int) *checker {
	c := &checker{src: src, feeds: feeds}
	c.wantBy = make([][]int, len(src.subjectNames()))
	return c
}

// subscribe registers one subscription with its patterns and returns its
// checker state.
func (c *checker) subscribe(group string, patterns ...string) *subCheck {
	s := &subCheck{
		group:    group,
		patterns: patterns,
		got:      make([][]uint64, c.feeds),
		last:     make([]uint64, c.feeds),
		sorted:   true,
	}
	id := len(c.subs)
	c.subs = append(c.subs, s)
	for i, name := range c.src.subjectNames() {
		for _, p := range patterns {
			if match(p, name) {
				c.wantBy[i] = append(c.wantBy[i], id)
				break
			}
		}
	}
	return s
}

// expected returns how many subscriptions should receive subject index i.
func (c *checker) expected(i int) int { return len(c.wantBy[i]) }

// deliver checks one received event and returns the publication it names
// (ok false when the object names none).
func (c *checker) deliver(s *subCheck, subj string, v mop.Value) (feed int, seq uint64, ok bool) {
	feed, seq, ok = identify(v)
	if !ok || feed >= c.feeds {
		s.faults.Corrupt++
		return 0, 0, false
	}
	wanted := false
	for _, p := range s.patterns {
		if match(p, subj) {
			wanted = true
			break
		}
	}
	if !wanted {
		// Off the subscription's subjects: flagged, and kept out of the
		// order and loss accounting, which speak of wanted deliveries.
		s.faults.Unsubscribed++
		s.bad = append(s.bad, pubKey{feed, seq})
		return feed, seq, true
	}
	flagged := false
	si, want := c.src.object(feed, seq)
	if subj != c.src.subjectNames()[si] || !equalValue(want, v) {
		s.faults.Corrupt++
		flagged = true
	}
	switch last := s.last[feed]; {
	case seq > last:
		s.last[feed] = seq
	case slices.Contains(s.got[feed], seq):
		s.faults.Duplicate++
		flagged = true
		s.sorted = false
	default:
		s.faults.Reorder++
		flagged = true
		s.sorted = false
	}
	s.got[feed] = append(s.got[feed], seq)
	if flagged {
		s.bad = append(s.bad, pubKey{feed, seq})
	}
	return feed, seq, true
}

// identify reads the (feed, seq) stamp every generated object carries.
func identify(v mop.Value) (int, uint64, bool) {
	o, ok := v.(*mop.Object)
	if !ok || o == nil {
		return 0, 0, false
	}
	f, err1 := o.Get("feed")
	q, err2 := o.Get("seq")
	fi, ok1 := f.(int64)
	qi, ok2 := q.(int64)
	if err1 != nil || err2 != nil || !ok1 || !ok2 || fi < 0 || qi < 1 {
		return 0, 0, false
	}
	return int(fi), uint64(qi), true
}

// report is the checker's verdict over a run.
type report struct {
	Published uint64            // publications checked
	Failed    uint64            // publications with any fault, losses included
	Faults    faults            // summed over subscriptions
	ByGroup   map[string]faults // per subscriber group
	Delivered map[string]uint64 // deliveries per subscriber group
}

// finish compares deliveries with what should have arrived, given how many
// publications each feed made (seqs 1..published[feed]), and returns the
// verdict. It must run after every subscription goroutine has stopped.
func (c *checker) finish(published []uint64) report {
	r := report{ByGroup: make(map[string]faults), Delivered: make(map[string]uint64)}
	bad := make(map[pubKey]bool)
	next := make([][]int, len(c.subs)) // per sub, per feed: position in got
	for i, s := range c.subs {
		next[i] = make([]int, c.feeds)
		if !s.sorted {
			for f := range s.got {
				slices.Sort(s.got[f])
				s.got[f] = slices.Compact(s.got[f])
			}
		}
		for _, k := range s.bad {
			bad[k] = true
		}
	}
	for f := 0; f < c.feeds; f++ {
		r.Published += published[f]
		for seq := uint64(1); seq <= published[f]; seq++ {
			for _, id := range c.wantBy[c.src.subjectIndex(f, seq)] {
				s, pos := c.subs[id], &next[id][f]
				// Seqs skipped here arrived under a subject that is not
				// theirs; deliver flagged them as corrupt already.
				for *pos < len(s.got[f]) && s.got[f][*pos] < seq {
					*pos++
				}
				if *pos < len(s.got[f]) && s.got[f][*pos] == seq {
					*pos++
					continue
				}
				s.faults.Lost++
				bad[pubKey{f, seq}] = true
			}
		}
	}
	for i, s := range c.subs {
		for f := 0; f < c.feeds; f++ {
			// Anything past the last publication names one never made.
			for _, seq := range s.got[f][next[i][f]:] {
				if seq > published[f] {
					s.faults.Corrupt++
					bad[pubKey{f, seq}] = true
				}
			}
			r.Delivered[s.group] += uint64(len(s.got[f]))
		}
		g := r.ByGroup[s.group]
		g.add(s.faults)
		r.ByGroup[s.group] = g
		r.Faults.add(s.faults)
	}
	r.Failed = uint64(len(bad))
	return r
}

func (r report) String() string {
	var b strings.Builder
	groups := make([]string, 0, len(r.ByGroup))
	for g := range r.ByGroup {
		groups = append(groups, g)
	}
	slices.Sort(groups)
	fmt.Fprintf(&b, "check: %d publications, %d failed", r.Published, r.Failed)
	for _, g := range groups {
		f := r.ByGroup[g]
		fmt.Fprintf(&b, "; %s: %d delivered, lost %d dup %d reorder %d corrupt %d unsubscribed %d",
			g, r.Delivered[g], f.Lost, f.Duplicate, f.Reorder, f.Corrupt, f.Unsubscribed)
	}
	return b.String()
}

// equalValue compares a regenerated value with a received one, walking
// objects attribute by attribute by name.
func equalValue(want, got mop.Value) bool {
	switch w := want.(type) {
	case nil:
		return got == nil
	case bool, int64, float64, string:
		return w == got
	case time.Time:
		g, ok := got.(time.Time)
		return ok && w.Equal(g)
	case []byte:
		g, ok := got.([]byte)
		return ok && string(w) == string(g)
	case mop.List:
		g, ok := got.(mop.List)
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if !equalValue(w[i], g[i]) {
				return false
			}
		}
		return true
	case *mop.Object:
		g, ok := got.(*mop.Object)
		if !ok || g == nil || g.Type().Name() != w.Type().Name() ||
			g.Type().NumAttrs() != w.Type().NumAttrs() {
			return false
		}
		for i, a := range w.Type().Attrs() {
			gv, err := g.Get(a.Name)
			if err != nil || !equalValue(w.GetAt(i), gv) {
				return false
			}
		}
		return true
	}
	return false
}
