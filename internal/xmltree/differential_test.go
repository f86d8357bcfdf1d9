package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/xmark"
)

// parseEdgeCases covers the corners of encoding/xml's strict language that
// the scanner reproduces: references, line-end normalisation, the UTF-8 and
// Char-range checks, "]]>", '<' in values, "--" in comments, the XML
// declaration checks, directives, qualified names, namespace declarations,
// and malformed structure.
var parseEdgeCases = []string{
	// Predefined entities and character references.
	`<a>&lt;&gt;&amp;&apos;&quot;</a>`,
	`<a>&#65;&#x41;&#x1F600;&#0000065;&#x0041;</a>`,
	`<a>&#xD800;&#xDFFF;</a>`, // surrogates decode to U+FFFD
	`<a>&#0;</a>`,
	`<a>&#xFFFE;</a>`,
	`<a>&#x110000;</a>`,
	`<a>&#99999999999999999999999999;</a>`,
	`<a>&#;</a>`,
	`<a>&#x;</a>`,
	`<a>&#X41;</a>`,
	`<a>&#65</a>`,
	`<a>&#6a;</a>`,
	`<a>&#xAbCd;</a>`,
	`<a>&nbsp;</a>`,
	`<a>&amp</a>`,
	`<a>&</a>`,
	`<a>& b</a>`,
	`<a>&;</a>`,
	`<a>&lt.;</a>`,
	"<a>&l\u00e9;</a>",
	`<a>&#13;</a>`,
	`<a>&#9;&#10;</a>`,
	`<a x="&lt;&#34;&apos;"/>`,
	`<a x="&bogus;"/>`,
	`<a/>&amp;`,
	`<a/>&`,
	"<a>&am",
	"<a>&#x4",
	// Line ends.
	"<a>x\r\ny\rz\n\rw</a>",
	"<a x='1\r\n2\r3'/>",
	"<a><![CDATA[p\r\nq\rr]]></a>",
	"<a>\r</a>",
	"<a>\r\n</a>",
	"<a>&#13;\n</a>",
	"<a>\r&amp;\n</a>",
	"<a>x\r</a>",
	// UTF-8 and the Char range.
	"<a>\xff</a>",
	"<a>\xe2\x82</a>",
	"<a>\xed\xa0\x80</a>",
	"<a>\x01</a>",
	"<a>\x7f</a>",
	"<a>\xef\xbf\xbe</a>",
	"<a>\xef\xbf\xbd</a>",
	"<a>\U0001F600 \u00e9</a>",
	"<a x='\x00'/>",
	"<a x='\xc3'/>",
	"<a><!-- \xff --></a>",
	"<a><?p \xff?></a>",
	"<a><![CDATA[\xff]]></a>",
	"<a><![CDATA[\x0b]]></a>",
	"\xef\xbb\xbf<a/>",
	"<a>\u00a0</a>", // whitespace to strings.TrimSpace
	"<a>\u0085\u2003</a>",
	"<a>\u00a0x</a>",
	"<a/>\xff",
	"\x01<a/>",
	// "]]>" outside CDATA.
	`<a>]]></a>`,
	`<a>]]]></a>`,
	`<a>]&#93;></a>`,
	`<a x="]]>"/>`,
	`<a>]></a>`,
	`<a>] ]></a>`,
	`<a><![CDATA[x]]]></a>`,
	`<a><![CDATA[]]>]]></a>`,
	`<a><![CDATA[a]]>]></a>`,
	`<a><![CDATA[]]></a>`,
	`<a/>]]>`,
	// '<' in attribute values.
	`<a x="<"/>`,
	`<a x='>'/>`,
	`<a x="it's"/>`,
	`<a x='say "hi"'/>`,
	// Comments.
	`<a><!-- a -- b --></a>`,
	`<a><!----></a>`,
	`<a><!---></a>`,
	`<a><!--->--></a>`,
	`<a><!-- x ---></a>`,
	`<a><!- x --></a>`,
	`<a><!--x--y--></a>`,
	`<!-- top --><a/><!-- after -->`,
	`<a><!-- x`,
	`<a><!--`,
	`<a><!-- x --`,
	`<a><!-- x -`,
	// The XML declaration and processing instructions.
	`<?xml version="1.0"?><a/>`,
	`<?xml version="1.1"?><a/>`,
	`<?xml version='2.0'?><a/>`,
	`<?xml version = "1.1"?><a/>`,
	`<?xml version=1.1?><a/>`,
	`<?xml version="1.1?><a/>`,
	`<?xml xversion="1.1"?><a/>`,
	`<?xml encoding="UTF-8"?><a/>`,
	`<?xml encoding="utf-8"?><a/>`,
	`<?xml encoding="Utf-8"?><a/>`,
	`<?xml encoding="latin1"?><a/>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`,
	`<?xml encoding="UTF-8" version="1.0" standalone="yes"?><a/>`,
	`<?xml?><a/>`,
	`<?xml ?><a/>`,
	`<?xml-stylesheet href="x"?><a/>`,
	`<?XML version="9"?><a/>`,
	`<a/><?xml version="1.1"?>`,
	`<? a?><a/>`,
	`<??><a/>`,
	`<?1a?><a/>`,
	`<?a:b:c?><a/>`,
	`<a><?pi ?>x</a>`,
	`<a><?pi>?></a>`,
	`<a><?pi?x?></a>`,
	`<a/><?pi`,
	`<a/><?pi ?`,
	"<?\u00e9 x?><a/>",
	// Directives, with encoding/xml's nesting and comment skipping.
	`<!DOCTYPE a><a/>`,
	`<!DOCTYPE a [<!ELEMENT a ANY>]><a/>`,
	`<!DOCTYPE a [<!-- c > -->]><a/>`,
	`<!DOCTYPE a [<!-- c -- x -->]><a/>`,
	`<!DOCTYPE a "x>y"><a/>`,
	`<!DOCTYPE a '>'><a/>`,
	`<!DOCTYPE a [<!ENTITY e "v">]><a>&e;</a>`,
	`<!DOCTYPE a <<>>><a/>`,
	`<!DOCTYPE a <!-x>><a/>`,
	`<!DOCTYPE a <!x>><a/>`,
	`<!DOCTYPE a <<!-->>-->><a/>`,
	`<!DOCTYPE a <"<">><a/>`,
	`<!>><a/>`,
	`<!><a/>`,
	`<!"'><a/>`,
	`<!DOCTYPE`,
	`<!DOCTYPE a <!--`,
	`<a><!DOCTYPE x></a>`,
	`<a><!x-->y</a>`,
	// Qualified names.
	`<a:b:c/>`,
	`<a:b/>`,
	`<:a/>`,
	`<a:/>`,
	`<:/>`,
	`<a :b="1" c:="2"/>`,
	`<a x:y:z="1"/>`,
	"<\u00e9/>",
	"<a\u00e9/>",
	"<a\u00b7/>",
	"<\u00b7a/>",
	"<\u0300/>",
	"<a\xff/>",
	"<a \u00e9='1'/>",
	"<a \u0300='1'/>",
	`<1a/>`,
	`<-a/>`,
	`<.a/>`,
	`<_a/>`,
	`<:a></:a>`,
	`<a.b-c_d9/>`,
	`<x:a></y:a>`,
	`<x:a></a>`,
	`<a></x:a>`,
	`<x:a></x:a>`,
	`<p:a xmlns:p="u"><p:b/></p:a>`,
	`<a></a:>`,
	`<a:></a:>`,
	// Tag syntax.
	`<ab/ >`,
	`<a / >`,
	`<a/>`,
	`<a x="1"y="2"/>`,
	`<a x="1" x="2"/>`,
	"<a\tx\n=\r'1'\n/>",
	`<a x = "1" />`,
	`<a x=1/>`,
	`<a x/>`,
	`<a x=/>`,
	`<a =1/>`,
	`<a></a >`,
	"<a></a\r\n>",
	`<a></a b>`,
	`<a></ a>`,
	`< a/>`,
	`<a"/>`,
	`<a>`,
	`<a x="1`,
	`<a x=`,
	`<a`,
	`<a/`,
	`<`,
	`</`,
	`<a/><`,
	`<a></a`,
	// Namespace declarations are not attributes.
	`<a xmlns="u" x="1"/>`,
	`<a xmlns:p="u" p:x="1"/>`,
	`<a xmlns:p="xmlns" p:x="1"/>`,
	`<a p:x="1" xmlns:p="xmlns"/>`,
	`<a xmlns:p="xmlns"><b p:x="1"/></a>`,
	`<a><b xmlns:p="xmlns"/><c p:x="1"/></a>`,
	`<a xmlns:p="xmlns"><b xmlns:p="u" p:x="1"/><c p:x="2"/></a>`,
	`<a xmlns:p="xmlns" xmlns:p="u" p:x="1"/>`,
	`<a xmlns:xml="xmlns" xml:lang="en"/>`,
	`<a q:xmlns="1" xmlns:q="v"/>`,
	`<a xmlns:="1"/>`,
	`<a xmlns:xmlns="u" xmlns:p="v" p:y="2"/>`,
	`<a xmlns:p="&#120;mlns" p:x="1"/>`,
	`<a xmlns:p="" p:x="1"/>`,
	`<a xmlns="xmlns" x="1"><b y="2"/></a>`,
	`<xmlns:a/>`,
	// Structure.
	`<a></b>`,
	`</a>`,
	`<a/></a>`,
	`<a/><b/>`,
	`<a/>text`,
	`text<a/>`,
	`<a/> <!-- c --> `,
	`<a><b></a>`,
	`<a>x`,
	``,
	`   `,
	`<!-- only -->`,
	`<?pi only?>`,
	`<a><![CDATA[x`,
	`<a><![CDAT[x]]></a>`,
	`<a><![cdata[x]]></a>`,
	`<a>x<!-- c -->y<?p?>z<![CDATA[w]]>v</a>`,
	`<a> <!-- c --> </a>`,
	`<a>  <![CDATA[ ]]>  </a>`,
	`<a><![CDATA[ <x> ]]><b/></a>`,
	`<a>x<b/>y<c>z</c>w</a>`,
	`<a>&amp;<!---->b</a>`,
	`<a><b x="1">t</b><b/><c><b>u</b></c></a>`,
}

// treeDump renders every observable part of a parsed document, one line
// per node in pre order followed by the label index, so two trees compare
// as strings and a mismatch points at its first differing line.
func treeDump(d *Document) string {
	var b strings.Builder
	fmt.Fprintf(&b, "uri=%q bytes=%d count=%d root=%d\n", d.URI, d.SourceBytes, d.NodeCount(), d.Root.ID.Pre)
	pre := func(n *Node) int32 {
		if n == nil {
			return 0
		}
		return n.ID.Pre
	}
	for i, n := range d.Nodes() {
		kids := make([]int32, len(n.Children))
		for j, c := range n.Children {
			kids[j] = pre(c)
		}
		fmt.Fprintf(&b, "%d %v %s label=%q text=%q parent=%d children=%v nil=%v\n",
			i, n.Kind, n.ID, n.Label, n.Text, pre(n.Parent), kids, n.Children == nil)
	}
	labels := make([]string, 0, len(d.byLabel))
	for l := range d.byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		pres := make([]int32, len(d.byLabel[l]))
		for j, n := range d.byLabel[l] {
			pres[j] = pre(n)
		}
		fmt.Fprintf(&b, "label %q %v\n", l, pres)
	}
	return b.String()
}

// compareWithOracle parses data with Parse and with the encoding/xml
// oracle and reports any difference: one accepting what the other
// rejects, or two different trees.
func compareWithOracle(uri string, data []byte) error {
	want, werr := oracleParse(uri, data)
	got, gerr := Parse(uri, data)
	switch {
	case werr != nil && gerr != nil:
		return nil
	case werr != nil:
		return fmt.Errorf("Parse accepted %q, encoding/xml rejects it: %v", data, werr)
	case gerr != nil:
		return fmt.Errorf("Parse rejected %q, encoding/xml accepts it: %v", data, gerr)
	}
	if err := checkCarving(got); err != nil {
		return fmt.Errorf("%q: %v", data, err)
	}
	gd, wd := treeDump(got), treeDump(want)
	if gd == wd {
		return nil
	}
	gl, wl := strings.Split(gd, "\n"), strings.Split(wd, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Errorf("%q: trees differ at line %d:\n  Parse:        %s\n  encoding/xml: %s", data, i, gl[i], wl[i])
		}
	}
	return fmt.Errorf("%q: trees differ in length: %d vs %d lines", data, len(gl), len(wl))
}

// checkCarving verifies that every carved list is capped at its length, so
// appending to one never writes into a neighbour's.
func checkCarving(d *Document) error {
	for _, n := range d.Nodes() {
		if cap(n.Children) != len(n.Children) {
			return fmt.Errorf("node %v: children len %d cap %d", n.ID, len(n.Children), cap(n.Children))
		}
	}
	for l, list := range d.byLabel {
		if cap(list) != len(list) {
			return fmt.Errorf("label %q: list len %d cap %d", l, len(list), cap(list))
		}
	}
	return nil
}

func TestParseMatchesEncodingXML(t *testing.T) {
	t.Run("edge-cases", func(t *testing.T) {
		accepted := 0
		for _, src := range parseEdgeCases {
			if err := compareWithOracle("edge.xml", []byte(src)); err != nil {
				t.Error(err)
			}
			if _, err := oracleParse("edge.xml", []byte(src)); err == nil {
				accepted++
			}
		}
		// Both sides of the language must be exercised.
		if accepted < len(parseEdgeCases)/3 || accepted > 2*len(parseEdgeCases)/3 {
			t.Errorf("edge table is lopsided: %d of %d accepted", accepted, len(parseEdgeCases))
		}
	})
	t.Run("paintings", func(t *testing.T) {
		for _, d := range xmark.Paintings() {
			if err := compareWithOracle(d.URI, d.Data); err != nil {
				t.Error(err)
			}
		}
	})
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("xmark-seed-%d", seed), func(t *testing.T) {
			for _, d := range parseCorpus(seed) {
				if err := compareWithOracle(d.URI, d.Data); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// parseCorpus is xwhbench's XMark corpus for a seed: 800 documents
// of about 4 KiB.
func parseCorpus(seed int64) []xmark.Doc {
	cfg := xmark.DefaultConfig(800)
	cfg.TargetDocBytes = 4 << 10
	cfg.Seed = seed
	return xmark.Generate(cfg)
}

func TestParseErrorIsSyntaxError(t *testing.T) {
	for _, src := range []string{`<a></b>`, `<a>&bogus;</a>`, "<a>\xff</a>", `<a`} {
		_, err := Parse("e.xml", []byte(src))
		var se *xml.SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%q: error %v is not an *xml.SyntaxError", src, err)
		}
	}
}

// FuzzParseMatchesEncodingXML: on any input, Parse and the encoding/xml
// oracle both reject it or both accept it and build the same tree.
func FuzzParseMatchesEncodingXML(f *testing.F) {
	for _, src := range parseEdgeCases {
		f.Add([]byte(src))
	}
	corpus := parseCorpus(1)
	for _, d := range corpus[:4] {
		f.Add(d.Data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := compareWithOracle("fuzz.xml", data); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkParse parses the 800-document xwhbench corpus per iteration,
// with the scanner and with the encoding/xml oracle it replaced.
func BenchmarkParse(b *testing.B) {
	corpus := parseCorpus(1)
	var size int64
	for _, d := range corpus {
		size += int64(len(d.Data))
	}
	for _, impl := range []struct {
		name  string
		parse func(string, []byte) (*Document, error)
	}{{"scanner", Parse}, {"encoding-xml", oracleParse}} {
		b.Run(impl.name, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, d := range corpus {
					if _, err := impl.parse(d.URI, d.Data); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
