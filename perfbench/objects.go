package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"infobus/internal/adapter"
	"infobus/internal/mop"
)

// rng is splitmix64: every published object is a pure function of
// (seed, feed, seq), so the checker can regenerate it without a log.
type rng uint64

func newRNG(parts ...uint64) rng {
	var s uint64 = 0x243f6a8885a308d3
	for _, p := range parts {
		s = mix(s ^ p)
	}
	return rng(s)
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	*r = rng(mix(uint64(*r)))
	return uint64(*r)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// word returns a lowercase pseudo-word of 2..9 letters.
func (r *rng) word() string {
	n := 2 + r.intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.intn(26))
	}
	return string(b)
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s by inverse
// CDF lookup, so a draw costs one uniform and one binary search.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// classes are the benchmark's own copies of the published types. Hosts get
// them only from the self-describing wire.
type classes struct {
	quote, story, lot, group *mop.Type
}

func defineClasses() (classes, error) {
	news, err := adapter.DefineNewsTypes(mop.NewRegistry())
	if err != nil {
		return classes{}, err
	}
	quote, err := mop.NewClass("Quote", nil, []mop.Attr{
		{Name: "symbol", Type: mop.String},
		{Name: "bid", Type: mop.Float},
		{Name: "ask", Type: mop.Float},
		{Name: "size", Type: mop.Int},
		{Name: "feed", Type: mop.Int},
		{Name: "seq", Type: mop.Int},
	}, nil)
	if err != nil {
		return classes{}, err
	}
	story, err := mop.NewClass("BenchStory", []*mop.Type{news.DJ}, []mop.Attr{
		{Name: "keywords", Type: mop.ListOf(mop.String)},
		{Name: "feed", Type: mop.Int},
		{Name: "seq", Type: mop.Int},
	}, nil)
	if err != nil {
		return classes{}, err
	}
	lot, err := mop.NewClass("LotMove", nil, []mop.Attr{
		{Name: "lot", Type: mop.String},
		{Name: "step", Type: mop.String},
		{Name: "qty", Type: mop.Int},
		{Name: "yield", Type: mop.Float},
		{Name: "at", Type: mop.Time},
		{Name: "feed", Type: mop.Int},
		{Name: "seq", Type: mop.Int},
	}, nil)
	if err != nil {
		return classes{}, err
	}
	return classes{quote: quote, story: story, lot: lot, group: news.Group}, nil
}

// subjectSpace is a workload's subject universe and popularity.
type subjectSpace struct {
	names []string // concrete subjects
	keys  []string // the varying element (symbol, topic, lot)
	pop   zipf     // nil cdf: uniform
}

func (sp subjectSpace) pick(r *rng) int {
	if sp.pop.cdf == nil {
		return r.intn(len(sp.names))
	}
	return sp.pop.draw(r.float())
}

// generator is the pure function (seed, feed, seq) -> (subject, object).
type generator struct {
	seed  uint64
	kind  string
	cls   classes
	space subjectSpace
	words []string // story vocabulary
	// corpus is a long text of vocabulary words; story headlines and
	// bodies are windows of it, so generating and checking a story costs
	// far less than the bus spends carrying it.
	corpus string
}

// symbols derives n distinct upper-case tickers from the seed.
func symbols(seed uint64, n int) []string {
	r := newRNG(seed, 1)
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		k := 3 + r.intn(3)
		b := make([]byte, k)
		for i := range b {
			b[i] = byte('a' + r.intn(26))
		}
		if s := string(b); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func newGenerator(kind string, seed uint64, cls classes) *generator {
	g := &generator{seed: seed, kind: kind, cls: cls}
	var keys []string
	switch kind {
	case "quotes":
		keys = symbols(seed, quoteSubjects)
		g.space.pop = newZipf(len(keys), zipfExponent)
		for _, k := range keys {
			g.space.names = append(g.space.names, "eq."+k+".quote")
		}
	case "stories":
		keys = symbols(seed^0x5555, storySubjects)
		for _, k := range keys {
			g.space.names = append(g.space.names, "news.dj."+k)
		}
		r := newRNG(seed, 2)
		for i := 0; i < 400; i++ {
			g.words = append(g.words, r.word())
		}
		var b strings.Builder
		for b.Len() < 1<<16 {
			b.WriteString(g.words[r.intn(len(g.words))])
			b.WriteByte(' ')
		}
		g.corpus = b.String()
	case "guaranteed":
		for i := 0; i < lotSubjects; i++ {
			keys = append(keys, fmt.Sprintf("l%03d", i))
			g.space.names = append(g.space.names, "wip.lot."+keys[i])
		}
	}
	g.space.keys = keys
	return g
}

// subjectIndex is the subject of publication (feed, seq).
func (g *generator) subjectIndex(feed int, seq uint64) int {
	r := newRNG(g.seed, uint64(feed), seq)
	return g.space.pick(&r)
}

// object regenerates publication (feed, seq); the subject draw comes first
// from the same stream, so subjectIndex agrees with it.
func (g *generator) object(feed int, seq uint64) (int, *mop.Object) {
	r := newRNG(g.seed, uint64(feed), seq)
	si := g.space.pick(&r)
	key := g.space.keys[si]
	var o *mop.Object
	switch g.kind {
	case "quotes":
		o = mop.MustNew(g.cls.quote)
		bid := 10 + float64(r.intn(100000))/100
		o.MustSet("symbol", key).
			MustSet("bid", bid).
			MustSet("ask", bid+float64(1+r.intn(20))/100).
			MustSet("size", int64(100*(1+r.intn(50))))
	case "stories":
		o = g.story(&r, key)
	case "guaranteed":
		o = mop.MustNew(g.cls.lot)
		o.MustSet("lot", key).
			MustSet("step", fmt.Sprintf("op%02d", r.intn(40))).
			MustSet("qty", int64(1+r.intn(25))).
			MustSet("yield", float64(r.intn(10000))/100).
			MustSet("at", time.Unix(1_700_000_000+int64(seq), int64(r.intn(1e9))).UTC())
	}
	o.MustSet("feed", int64(feed)).MustSet("seq", int64(seq))
	return si, o
}

// text returns a window of about n bytes of the corpus.
func (g *generator) text(r *rng, n int) string {
	off := r.intn(len(g.corpus) - n)
	return g.corpus[off : off+n]
}

func (g *generator) story(r *rng, key string) *mop.Object {
	o := mop.MustNew(g.cls.story)
	groups := make(mop.List, 3)
	for i := range groups {
		grp := mop.MustNew(g.cls.group)
		grp.MustSet("code", fmt.Sprintf("G%03d", r.intn(200))).MustSet("weight", float64(r.intn(1000))/1000)
		groups[i] = grp
	}
	kw := make(mop.List, 8+r.intn(5))
	for i := range kw {
		kw[i] = g.words[r.intn(len(g.words))]
	}
	o.MustSet("headline", g.text(r, 60)).
		MustSet("body", g.text(r, storyBodyBytes-r.intn(400))).
		MustSet("category", "dj").
		MustSet("ticker", key).
		MustSet("sources", mop.List{"dj", g.words[r.intn(len(g.words))]}).
		MustSet("countryCodes", mop.List{"us", "gb"}).
		MustSet("groups", groups).
		MustSet("published", time.Unix(1_700_000_000+int64(r.intn(1e6)), 0).UTC()).
		MustSet("urgent", r.intn(10) == 0).
		MustSet("djCode", fmt.Sprintf("DJ%05d", r.intn(100000))).
		MustSet("keywords", kw)
	return o
}

// Workload sizes (README "Inputs").
const (
	quoteSubjects  = 1000
	zipfExponent   = 1.0
	watchlistSize  = 200
	farWatchSize   = 100
	storySubjects  = 50
	storyBodyBytes = 3400
	lotSubjects    = 20
)
