package xmltree

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzXMLParse: Parse takes document bytes straight from PUT /document, so
// it must never panic on arbitrary input. For anything it accepts, every
// node is reachable by its pre rank and sits one level below its parent,
// and the rendered content is a fixed point: Root.Content() reparses to a
// document whose root renders identically.
func FuzzXMLParse(f *testing.F) {
	f.Add([]byte(delacroixXML))
	f.Add([]byte(`<a x="1" y='2'>t1<b/>t2<!-- c --><![CDATA[<raw>]]>&amp;&#xA;</a>`))
	f.Add([]byte(`<?xml version="1.0"?><!DOCTYPE a><n:a xmlns:n="u" n:k="v"><n:b/></n:a>`))
	f.Add([]byte("<a>\r\n \t</a>"))
	f.Add([]byte(`<a></b>`))
	f.Add([]byte(`<a/><b/>`))
	f.Add([]byte(``))
	// Depth bomb: deep nesting drives the recursive renderer.
	f.Add([]byte(strings.Repeat("<d>", 2000) + "x" + strings.Repeat("</d>", 2000)))
	// Attribute bomb: one element carrying thousands of attributes.
	var attrs strings.Builder
	attrs.WriteString("<a")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&attrs, ` a%d="v"`, i)
	}
	attrs.WriteString("/>")
	f.Add([]byte(attrs.String()))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Parse("fuzz.xml", data)
		if err != nil {
			return
		}
		for i, n := range doc.Nodes() {
			if n.ID.Pre != int32(i+1) || doc.NodeByPre(n.ID.Pre) != n {
				t.Fatalf("node %d has pre %d and does not round-trip through NodeByPre", i, n.ID.Pre)
			}
			if n.Parent != nil && !n.Parent.ID.IsParentOf(n.ID) {
				t.Fatalf("node %v is not a child of its parent %v", n.ID, n.Parent.ID)
			}
		}
		text := doc.Root.Content()
		again, err := Parse("fuzz.xml", []byte(text))
		if err != nil {
			t.Fatalf("accepted %q but its content %q does not reparse: %v", data, text, err)
		}
		if got := again.Root.Content(); got != text {
			t.Fatalf("content is not a fixed point:\n  input:  %q\n  first:  %q\n  second: %q", data, text, got)
		}
	})
}
