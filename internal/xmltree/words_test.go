package xmltree

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// containsWordBySplit is ContainsWord's definition: w is one of Words(s).
func containsWordBySplit(s, w string) bool {
	for _, got := range Words(s) {
		if got == w {
			return true
		}
	}
	return false
}

func TestContainsWordTable(t *testing.T) {
	cases := []struct {
		s, w string
		want bool
	}{
		{"The Lion Hunt", "Lion", true},
		{"The Lion Hunt", "The", true},
		{"The Lion Hunt", "Hunt", true},
		{"The Lion Hunt", "Lio", false},
		{"The Lion Hunt", "ion", false},
		{"The Lion Hunt", "lion", false},
		{"The Lion Hunt", "Lion Hunt", false},
		{"The Lion Hunt", "", false},
		{"", "a", false},
		{"", "", false},
		{"aa a", "a", true},
		{"aaa", "a", false},
		{"ab,ab;ab", "ab", true},
		{"1863-1", "1863", false},
		{"1863-1", "1863-1", true},
		{"snake_case", "case", false},
		{"year=1854!", "1854", true},
		{"x.y", "y", true},
		{"café bar", "caf", false},
		{"café bar", "café", true},
		{"été", "t", false},
		{"a\xffb c", "a", false},
		{"a \xff b", "\xff", true},
		{"a\xe2 b", "a\xe2", true},
		{"a\xe2\x82\xac b", "a\xe2", false},
		{"Zanzibar, Creditcard", "Zanzibar", true},
		{"Zanzibar, Creditcard", "Creditcard", true},
		{"Zanzibar, Creditcard", ",", false},
	}
	for _, c := range cases {
		if got := ContainsWord(c.s, c.w); got != c.want {
			t.Errorf("ContainsWord(%q, %q) = %v, want %v", c.s, c.w, got, c.want)
		}
		if def := containsWordBySplit(c.s, c.w); def != c.want {
			t.Errorf("table row (%q, %q) disagrees with the Words definition (%v)", c.s, c.w, def)
		}
	}
}

// wordProbe is a quick-generated (s, w) pair over a small alphabet of word
// and non-word pieces, so that hits, near misses and boundaries are common.
type wordProbe struct{ S, W string }

var wordPieces = []string{"a", "b", "ab", "1", "-", "_", " ", ",", ".", "=", "é", "\xff", "\xe2\x82", "\t"}

func (wordProbe) Generate(r *rand.Rand, size int) reflect.Value {
	gen := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(wordPieces[r.Intn(len(wordPieces))])
		}
		return b.String()
	}
	s := gen(r.Intn(size + 1))
	var w string
	switch r.Intn(3) {
	case 0: // a word of s, when it has one
		if words := Words(s); len(words) > 0 {
			w = words[r.Intn(len(words))]
		}
	case 1: // any substring of s
		if len(s) > 0 {
			i := r.Intn(len(s))
			w = s[i : i+r.Intn(len(s)-i+1)]
		}
	default:
		w = gen(1 + r.Intn(3))
	}
	return reflect.ValueOf(wordProbe{S: s, W: w})
}

func TestContainsWordMatchesWordsProperty(t *testing.T) {
	f := func(p wordProbe) bool {
		return ContainsWord(p.S, p.W) == containsWordBySplit(p.S, p.W)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	g := func(s, w string) bool {
		return ContainsWord(s, w) == containsWordBySplit(s, w)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestContainsWordDoesNotAllocate(t *testing.T) {
	s := "An ornate cabinet from Zanzibar, with brass fittings and a key"
	if n := testing.AllocsPerRun(100, func() { ContainsWord(s, "Zanzibar") }); n != 0 {
		t.Errorf("ContainsWord allocates %v times per call", n)
	}
}

func TestValueOfSoleTextChild(t *testing.T) {
	d := mustParse(t, "v.xml", `<a><b k="v">leaf</b><c k="v"/><d>x<e/>y</d><f><g>deep</g></f></a>`)
	want := map[string]string{"b": "leaf", "c": "", "d": "xy", "f": "deep", "a": "leafxydeep"}
	for label, v := range want {
		n := d.NodesByLabel(label)[0]
		if got := n.Value(); got != v {
			t.Errorf("%s.Value() = %q, want %q", label, got, v)
		}
	}
	leaf := d.NodesByLabel("b")[0]
	if n := testing.AllocsPerRun(100, func() { _ = leaf.Value() }); n != 0 {
		t.Errorf("Value of a text leaf allocates %v times per call", n)
	}
}
