// Package xmltree parses XML documents into in-memory trees whose nodes
// carry the (pre, post, depth) structural identifiers the paper's indexes
// and structural joins are built on (Section 5, after [3]).
//
// Identifier assignment follows Figure 3 of the paper exactly:
//
//   - element, attribute and text nodes are all numbered;
//   - pre is the preorder rank (1-based), assigned to an element before its
//     attributes, which precede its element/text children in document order;
//   - post is the postorder rank; attributes and text blobs are leaves;
//   - depth starts at 1 for the root; attributes sit one level below their
//     owner element;
//   - a run of character data forms a single text node (the words of the
//     text all share that node's identifier);
//   - whitespace-only character data between elements is ignored.
//
// With these identifiers, n1 is an ancestor of n2 iff n1.pre < n2.pre and
// n1.post > n2.post (the paper's Section 5 states "n1.post < n2.post",
// which contradicts its own Figure 3 numbers; we follow the figure), and n1
// is the parent of n2 iff additionally n1.depth+1 == n2.depth.
package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"
)

// NodeKind distinguishes the three node flavours the index sees.
type NodeKind uint8

const (
	// Element is an XML element node.
	Element NodeKind = iota
	// Attribute is an XML attribute node.
	Attribute
	// Text is a run of character data.
	Text
)

func (k NodeKind) String() string {
	switch k {
	case Element:
		return "element"
	case Attribute:
		return "attribute"
	case Text:
		return "text"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// NodeID is a (pre, post, depth) structural identifier.
type NodeID struct {
	Pre   int32
	Post  int32
	Depth int32
}

// String renders the identifier as the paper prints it, e.g. "(3, 3, 2)".
func (id NodeID) String() string {
	return fmt.Sprintf("(%d, %d, %d)", id.Pre, id.Post, id.Depth)
}

// IsAncestorOf reports whether the node identified by id is a strict
// ancestor of the node identified by other (within the same document).
func (id NodeID) IsAncestorOf(other NodeID) bool {
	return id.Pre < other.Pre && id.Post > other.Post
}

// IsParentOf reports whether id identifies the parent of other.
func (id NodeID) IsParentOf(other NodeID) bool {
	return id.IsAncestorOf(other) && id.Depth+1 == other.Depth
}

// Less orders identifiers by pre rank (document order).
func (id NodeID) Less(other NodeID) bool { return id.Pre < other.Pre }

// Node is one tree node.
type Node struct {
	Kind NodeKind
	// Label is the element or attribute name; empty for text nodes.
	Label string
	// Text is the character data of a Text node or the value of an
	// Attribute node; empty for elements.
	Text string
	ID   NodeID

	Parent *Node
	// Children lists attribute nodes first, then element and text
	// children in document order.
	Children []*Node
}

// Document is a parsed XML document.
type Document struct {
	// URI identifies the document in the warehouse (URI(d) in the paper).
	URI  string
	Root *Node
	// SourceBytes is the size of the serialized input, the s(D)
	// contribution of this document.
	SourceBytes int64

	nodes   []*Node // in pre order; nodes[pre-1]
	byLabel map[string][]*Node
}

// Parse errors.
var (
	ErrEmptyDocument = errors.New("xmltree: document has no root element")
)

// buildLabelIndex materializes the label → nodes map. Parse calls it
// eagerly so that a parsed document is immutable afterwards and can be read
// from any number of goroutines (the query pipeline evaluates one document
// on several workers). Each label gets a dense id on first sight, so the
// map is touched once per labelled node and once per distinct label, and
// the lists are carved from one backing array, each capped at its length.
func (d *Document) buildLabelIndex(s *labelScratch) {
	s.labels = append(s.labels[:0], "")
	s.counts = append(s.counts[:0], 0)
	s.of = s.of[:0]
	for _, n := range d.nodes {
		id := int32(0) // text nodes carry the empty label
		if n.Label != "" {
			var ok bool
			if id, ok = s.ids[n.Label]; !ok {
				id = int32(len(s.labels))
				s.ids[n.Label] = id
				s.labels = append(s.labels, n.Label)
				s.counts = append(s.counts, 0)
			}
		}
		s.of = append(s.of, id)
		s.counts[id]++
	}
	backing := make([]*Node, len(d.nodes))
	s.lists = s.lists[:0]
	off := int32(0)
	for _, c := range s.counts {
		s.lists = append(s.lists, backing[off:off:off+c])
		off += c
	}
	for i, n := range d.nodes {
		s.lists[s.of[i]] = append(s.lists[s.of[i]], n)
	}
	d.byLabel = make(map[string][]*Node, len(s.labels))
	for id, label := range s.labels {
		if len(s.lists[id]) > 0 {
			d.byLabel[label] = s.lists[id]
		}
	}
}

// labelScratch is buildLabelIndex's working memory, reusable across
// documents once reset.
type labelScratch struct {
	ids    map[string]int32 // label → dense id; "" is id 0
	labels []string         // id → label
	counts []int32          // id → nodes carrying it
	of     []int32          // node index → label id
	lists  [][]*Node        // id → its carved list
}

func newLabelScratch() *labelScratch {
	return &labelScratch{ids: make(map[string]int32)}
}

// reset drops every reference into the last document.
func (s *labelScratch) reset() {
	clear(s.ids)
	clear(s.labels)
	clear(s.lists)
	s.labels, s.counts, s.of, s.lists = s.labels[:0], s.counts[:0], s.of[:0], s.lists[:0]
}

// NodeCount returns the number of nodes (elements, attributes, texts).
func (d *Document) NodeCount() int { return len(d.nodes) }

// Nodes returns all nodes in document (pre) order. The slice is shared;
// callers must not modify it.
func (d *Document) Nodes() []*Node { return d.nodes }

// NodeByPre returns the node with the given pre rank (1-based), or nil.
func (d *Document) NodeByPre(pre int32) *Node {
	if pre < 1 || int(pre) > len(d.nodes) {
		return nil
	}
	return d.nodes[pre-1]
}

// NodesByLabel returns the element or attribute nodes carrying the given
// label, in document order. Text nodes, having no label, are returned for
// label "". Parse builds the underlying map eagerly, so concurrent calls on
// a parsed document are safe; the lazy fallback only serves documents
// assembled by hand, which are single-goroutine by construction. Callers
// must not modify the result.
func (d *Document) NodesByLabel(label string) []*Node {
	if d.byLabel == nil {
		d.buildLabelIndex(newLabelScratch())
	}
	return d.byLabel[label]
}

// Value returns the string value of a node as defined in Section 4 of the
// paper: for an element, the concatenation of all its text descendants in
// document order; for an attribute or text node, its own text.
func (n *Node) Value() string {
	switch n.Kind {
	case Attribute, Text:
		return n.Text
	}
	if text, ok := n.soleText(); ok {
		return text
	}
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

// soleText returns the text of an element whose only non-attribute child
// is a text node, the common leaf shape, whose value needs no builder.
func (n *Node) soleText() (string, bool) {
	var only *Node
	for _, c := range n.Children {
		if c.Kind == Attribute {
			continue
		}
		if only != nil || c.Kind != Text {
			return "", false
		}
		only = c
	}
	if only == nil {
		return "", false
	}
	return only.Text, true
}

func (n *Node) appendText(b *strings.Builder) {
	if n.Kind == Text {
		b.WriteString(n.Text)
		return
	}
	for _, c := range n.Children {
		if c.Kind == Attribute {
			continue
		}
		c.appendText(b)
	}
}

// Content serializes the full XML subtree rooted at n, the granularity
// returned for a `cont` annotation.
func (n *Node) Content() string {
	var b strings.Builder
	n.writeXML(&b)
	return b.String()
}

func (n *Node) writeXML(b *strings.Builder) {
	switch n.Kind {
	case Text:
		xml.EscapeText(b, []byte(n.Text))
	case Attribute:
		b.WriteString(n.Label)
		b.WriteString(`="`)
		xml.EscapeText(b, []byte(n.Text))
		b.WriteString(`"`)
	case Element:
		b.WriteString("<")
		b.WriteString(n.Label)
		var rest []*Node
		for _, c := range n.Children {
			if c.Kind == Attribute {
				b.WriteString(" ")
				c.writeXML(b)
			} else {
				rest = append(rest, c)
			}
		}
		if len(rest) == 0 {
			b.WriteString("/>")
			return
		}
		b.WriteString(">")
		for _, c := range rest {
			c.writeXML(b)
		}
		b.WriteString("</")
		b.WriteString(n.Label)
		b.WriteString(">")
	}
}

// Path returns the nodes on the label path from the document root down to n,
// inclusive (the inPath(n) of Section 5). Text nodes contribute themselves
// as the last step.
func (n *Node) Path() []*Node {
	var rev []*Node
	for cur := n; cur != nil; cur = cur.Parent {
		rev = append(rev, cur)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Words splits a string value into the words under which full-text (w‖word)
// index keys are created: maximal runs of letters and digits. Matching is
// case-sensitive, as in the paper's examples (wOlympia, w1854).
func Words(s string) []string {
	var words []string
	start := -1
	for i, r := range s {
		if isWordRune(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			words = append(words, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		words = append(words, s[start:])
	}
	return words
}

// ContainsWord reports whether the word w occurs in the value s, the
// semantics of the contains(c) predicate: whether w is one of Words(s). It
// scans s in place. Every non-word rune is a single ASCII byte, so an
// occurrence of w that is itself all word runes and is bounded by non-word
// bytes (or the ends of s) is exactly one of the words of s.
func ContainsWord(s, w string) bool {
	if w == "" {
		return false
	}
	for _, r := range w {
		if !isWordRune(r) {
			return false
		}
	}
	for off := 0; ; {
		i := strings.Index(s[off:], w)
		if i < 0 {
			return false
		}
		i += off
		end := i + len(w)
		if (i == 0 || !isWordByte(s[i-1])) && (end == len(s) || !isWordByte(s[end])) {
			return true
		}
		off = i + 1
	}
}

// isWordByte reports whether byte c can belong to a word: a word rune in
// ASCII, or any byte of a multi-byte (or invalid) sequence.
func isWordByte(c byte) bool {
	return c >= utf8.RuneSelf || isWordRune(rune(c))
}

func isWordRune(r rune) bool {
	switch {
	case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		return true
	case r == '-', r == '_':
		// Keep identifiers like "1863-1" (Figure 3's aid 1863-1) whole.
		return true
	}
	return r > 127 // non-ASCII letters kept whole
}
