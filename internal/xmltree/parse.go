package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strings"
	"sync"
	"unicode/utf8"
)

// Parse builds the tree for one document.
//
// Parse accepts exactly the language of encoding/xml's strict-mode
// Decoder.Token loop (no CharsetReader, no custom entities) and builds the
// tree that loop would: the five predefined entities and character
// references are decoded, "\r\n" and lone "\r" become "\n" in text,
// attribute values and CDATA, character data must be UTF-8 within the XML
// Char range, names are split into prefix and local part (the label is the
// local part), and namespace declarations are not attributes. The oracle
// test holds the encoding/xml-based parser and checks the two agree.
//
// The scanner makes one pass over a single string copy of data. Text and
// attribute values that need no decoding are substrings of that copy,
// nodes come from a per-document slab, and every Children list is carved
// from one backing array, so a document costs a handful of allocations
// rather than several per node.
func Parse(uri string, data []byte) (*Document, error) {
	p := parserPool.Get().(*parser)
	doc, err := p.parse(uri, data)
	p.release()
	return doc, err
}

// parser is the scanner state; its scratch buffers are pooled across
// documents, the tree it builds is not.
type parser struct {
	src string
	pos int

	doc   *Document
	slab  []Node // current node chunk
	nodes []*Node
	pre   int32
	post  int32

	stack []frame
	ns    []nsBinding // in-scope xmlns:prefix declarations, innermost last
	attrs []rawAttr   // attributes of the start tag being scanned
	kids  []int32     // children per node, indexed by pre-1

	// Character data accumulated since the last tag: src[pendLo:pendHi]
	// while it is one undecoded run, text once it is not.
	pend           pendState
	pendLo, pendHi int
	text           []byte
	dec            []byte // decoding scratch for one run of character data

	labels *labelScratch
}

type pendState uint8

const (
	pendNone pendState = iota
	pendSpan
	pendText
)

type frame struct {
	el     *Node
	name   string // qualified name, which the end tag must repeat
	nsMark int    // len(ns) before this element's declarations
}

type nsBinding struct{ prefix, uri string }

type rawAttr struct{ prefix, local, value string }

var parserPool = sync.Pool{New: func() any { return &parser{labels: newLabelScratch()} }}

// maxPooledScratch bounds the scratch a pooled parser keeps, so one huge
// document does not pin its buffers forever.
const maxPooledScratch = 1 << 16

func (p *parser) release() {
	keep := cap(p.stack) <= maxPooledScratch && cap(p.kids) <= maxPooledScratch &&
		cap(p.text) <= maxPooledScratch && cap(p.dec) <= maxPooledScratch &&
		len(p.labels.ids) <= maxPooledScratch
	if !keep {
		return
	}
	clear(p.stack[:cap(p.stack)])
	clear(p.ns[:cap(p.ns)])
	clear(p.attrs[:cap(p.attrs)])
	p.labels.reset()
	*p = parser{
		stack:  p.stack[:0],
		ns:     p.ns[:0],
		attrs:  p.attrs[:0],
		kids:   p.kids[:0],
		text:   p.text[:0],
		dec:    p.dec[:0],
		labels: p.labels,
	}
	parserPool.Put(p)
}

func (p *parser) parse(uri string, data []byte) (*Document, error) {
	p.src = string(data)
	p.doc = &Document{URI: uri, SourceBytes: int64(len(data))}
	// Every element, attribute and text node is announced by a '<' or an
	// '=' (a text run ends at the next tag), so this rarely falls short;
	// newNode adds a chunk when it does.
	est := bytes.Count(data, []byte{'<'}) + bytes.Count(data, []byte{'='})
	p.slab = make([]Node, 0, est)
	p.nodes = make([]*Node, 0, est)
	if err := p.scan(); err != nil {
		return nil, fmt.Errorf("xmltree: parsing %s: %w", uri, err)
	}
	if p.doc.Root == nil {
		return nil, fmt.Errorf("%w: %s", ErrEmptyDocument, uri)
	}
	p.finish()
	return p.doc, nil
}

// scan runs the token loop over p.src.
func (p *parser) scan() error {
	src := p.src
	for p.pos < len(src) {
		if src[p.pos] != '<' {
			if err := p.charData(false); err != nil {
				return err
			}
			continue
		}
		if p.pos+1 >= len(src) {
			return p.eof()
		}
		var err error
		switch src[p.pos+1] {
		case '/':
			err = p.endTag()
		case '?':
			err = p.procInst()
		case '!':
			err = p.bang()
		default:
			err = p.startTag()
		}
		if err != nil {
			return err
		}
	}
	if len(p.stack) > 0 {
		return p.eof()
	}
	return nil
}

func (p *parser) syntaxError(msg string) error {
	return &xml.SyntaxError{Msg: msg, Line: 1 + strings.Count(p.src[:min(p.pos, len(p.src))], "\n")}
}

func (p *parser) eof() error {
	p.pos = len(p.src)
	return p.syntaxError("unexpected EOF")
}

// expect consumes the byte c, failing with msg on any other byte.
func (p *parser) expect(c byte, msg string) error {
	if p.pos >= len(p.src) {
		return p.eof()
	}
	if p.src[p.pos] != c {
		return p.syntaxError(msg)
	}
	p.pos++
	return nil
}

// --- tags --------------------------------------------------------------

func (p *parser) startTag() error {
	src := p.src
	p.pos++ // '<'
	name, err := p.name("expected element name after <")
	if err != nil {
		return err
	}
	_, local, err := p.splitName(name)
	if err != nil {
		return err
	}
	p.attrs = p.attrs[:0]
	empty := false
	for {
		p.space()
		if p.pos >= len(src) {
			return p.eof()
		}
		if c := src[p.pos]; c == '/' {
			p.pos++
			if err := p.expect('>', "expected /> in element"); err != nil {
				return err
			}
			empty = true
			break
		} else if c == '>' {
			p.pos++
			break
		}
		aname, err := p.name("expected attribute name in element")
		if err != nil {
			return err
		}
		prefix, alocal, err := p.splitName(aname)
		if err != nil {
			return err
		}
		p.space()
		if err := p.expect('=', "attribute name without = in element"); err != nil {
			return err
		}
		p.space()
		if p.pos >= len(src) {
			return p.eof()
		}
		q := src[p.pos]
		if q != '"' && q != '\'' {
			return p.syntaxError("unquoted or missing attribute value in element")
		}
		p.pos++
		lo, hi, decoded, err := p.chars(q, false)
		if err != nil {
			return err
		}
		value := src[lo:hi]
		if decoded {
			value = string(p.dec)
		}
		p.attrs = append(p.attrs, rawAttr{prefix: prefix, local: alocal, value: value})
	}

	// Declarations on an element apply to its own attribute names too, so
	// bind them all before any attribute is resolved.
	mark := len(p.ns)
	for _, a := range p.attrs {
		if a.prefix == "xmlns" {
			p.ns = append(p.ns, nsBinding{prefix: a.local, uri: a.value})
		}
	}

	p.flushText()
	if p.doc.Root != nil && len(p.stack) == 0 {
		return fmt.Errorf("multiple root elements")
	}
	var parent *Node
	depth := int32(1)
	if len(p.stack) > 0 {
		parent = p.stack[len(p.stack)-1].el
		depth = parent.ID.Depth + 1
	}
	p.pre++
	el := p.newNode(parent)
	el.Kind, el.Label, el.ID = Element, local, NodeID{Pre: p.pre, Depth: depth}
	if parent == nil {
		p.doc.Root = el
	}
	for _, a := range p.attrs {
		if p.isNamespaceDecl(a) {
			continue
		}
		p.pre++
		p.post++
		an := p.newNode(el)
		an.Kind, an.Label, an.Text = Attribute, a.local, a.value
		an.ID = NodeID{Pre: p.pre, Post: p.post, Depth: depth + 1}
	}
	p.stack = append(p.stack, frame{el: el, name: name, nsMark: mark})
	if empty {
		p.closeElement()
	}
	return nil
}

// isNamespaceDecl reports whether encoding/xml would resolve the
// attribute's name to the xmlns space (or local name), which the tree
// leaves out: xmlns itself, any xmlns:p, and any p:a whose prefix p is
// bound to the URI "xmlns". The xml prefix resolves to its fixed URI and
// an unprefixed attribute name is never resolved.
func (p *parser) isNamespaceDecl(a rawAttr) bool {
	if a.local == "xmlns" || a.prefix == "xmlns" {
		return true
	}
	if a.prefix == "" || a.prefix == "xml" {
		return false
	}
	for i := len(p.ns) - 1; i >= 0; i-- {
		if p.ns[i].prefix == a.prefix {
			return p.ns[i].uri == "xmlns"
		}
	}
	return false
}

func (p *parser) endTag() error {
	p.pos += 2 // "</"
	name, err := p.name("expected element name after </")
	if err != nil {
		return err
	}
	_, local, err := p.splitName(name)
	if err != nil {
		return err
	}
	p.space()
	if err := p.expect('>', "invalid characters between </"+local+" and >"); err != nil {
		return err
	}
	if len(p.stack) == 0 {
		return p.syntaxError("unexpected end element </" + local + ">")
	}
	// Equal qualified names are exactly equal (prefix, local) pairs.
	if top := p.stack[len(p.stack)-1]; top.name != name {
		return p.syntaxError("element <" + top.el.Label + "> closed by </" + local + ">")
	}
	p.flushText()
	p.closeElement()
	return nil
}

func (p *parser) closeElement() {
	f := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	p.post++
	f.el.ID.Post = p.post
	clear(p.ns[f.nsMark:])
	p.ns = p.ns[:f.nsMark]
}

// procInst skips a processing instruction, checking an <?xml ...?>
// declaration's version and encoding as encoding/xml does.
func (p *parser) procInst() error {
	p.pos += 2 // "<?"
	target, err := p.name("expected target name after <?")
	if err != nil {
		return err
	}
	p.space()
	k := strings.Index(p.src[p.pos:], "?>")
	if k < 0 {
		return p.eof()
	}
	content := p.src[p.pos : p.pos+k]
	p.pos += k + 2
	if target != "xml" {
		return nil
	}
	if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
		return fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return fmt.Errorf("xml: encoding %q declared but Decoder.CharsetReader is nil", enc)
	}
	return nil
}

// procInstParam extracts param's quoted value from a processing
// instruction's content the way encoding/xml does: the first "param="
// directly followed by a quote, up to the next matching quote.
func procInstParam(param, s string) string {
	param += "="
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bang handles "<!": a comment, a CDATA section or a directive.
func (p *parser) bang() error {
	src := p.src
	p.pos += 2 // "<!"
	if p.pos >= len(src) {
		return p.eof()
	}
	switch src[p.pos] {
	case '-':
		p.pos++
		if err := p.expect('-', "invalid sequence <!- not part of <!--"); err != nil {
			return err
		}
		// The first "--" must close the comment.
		k := strings.Index(src[p.pos:], "--")
		if k < 0 || p.pos+k+2 >= len(src) {
			return p.eof()
		}
		p.pos += k + 2
		if src[p.pos] != '>' {
			return p.syntaxError(`invalid sequence "--" not allowed in comments`)
		}
		p.pos++
		return nil
	case '[':
		p.pos++
		for i := 0; i < len("CDATA["); i++ {
			if err := p.expect("CDATA["[i], "invalid <![ sequence"); err != nil {
				return err
			}
		}
		return p.charData(true)
	}
	return p.directive()
}

// directive skips <!DOCTYPE ...>, <!ENTITY ...> and the like, following
// encoding/xml byte for byte: quoted '>' and '<' do not count, other
// nested '<' ... '>' pairs do, and "<!--" ... "-->" inside is a comment.
// p.pos is at the byte after "<!", which is taken as is.
func (p *parser) directive() error {
	src := p.src
	p.pos++
	var inquote byte
	depth := 0
	for {
		if p.pos >= len(src) {
			return p.eof()
		}
		b := src[p.pos]
		p.pos++
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for i := 0; i < len("!--"); i++ {
				if p.pos >= len(src) {
					return p.eof()
				}
				b = src[p.pos]
				p.pos++
				if b != "!--"[i] {
					depth++
					goto handle
				}
			}
			k := strings.Index(src[p.pos:], "-->")
			if k < 0 {
				return p.eof()
			}
			p.pos += k + 3
		}
	}
}

// --- names -------------------------------------------------------------

// name scans a name: a maximal run of ASCII name bytes and non-ASCII
// bytes, which must then be a valid XML name. A run that is empty is
// reported with the caller's message.
func (p *parser) name(missing string) (string, error) {
	src := p.src
	i := p.pos
	var high byte
	for i < len(src) {
		c := src[i]
		if c < utf8.RuneSelf && !isNameByte(c) {
			break
		}
		high |= c
		i++
	}
	if i >= len(src) {
		return "", p.eof()
	}
	if i == p.pos {
		return "", p.syntaxError(missing)
	}
	s := src[p.pos:i]
	if high < utf8.RuneSelf {
		if c := s[0]; c == '-' || c == '.' || '0' <= c && c <= '9' {
			return "", p.syntaxError("invalid XML name: " + s)
		}
	} else if !isXMLName(s) {
		return "", p.syntaxError("invalid XML name: " + s)
	}
	p.pos = i
	return s, nil
}

// isXMLName asks encoding/xml whether s, a run of name bytes holding some
// non-ASCII ones, is a name: a processing instruction's target goes
// through exactly the name check tags and attributes do.
func isXMLName(s string) bool {
	_, err := xml.NewDecoder(strings.NewReader("<?" + s + "?>")).RawToken()
	return err == nil
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

// splitName splits a qualified name at its colon. A name with more than
// one colon is an error; one with a leading or trailing colon is all
// local part.
func (p *parser) splitName(s string) (prefix, local string, err error) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return "", s, nil
	}
	if strings.IndexByte(s[i+1:], ':') >= 0 {
		return "", "", p.syntaxError("invalid XML name: " + s)
	}
	if i == 0 || i == len(s)-1 {
		return "", s, nil
	}
	return s[:i], s[i+1:], nil
}

func (p *parser) space() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\r', '\n', '\t':
			p.pos++
		default:
			return
		}
	}
}

// --- character data ----------------------------------------------------

// charData scans a run of text up to the next '<' (or the end of input),
// or a CDATA body, into the pending character data.
func (p *parser) charData(cdata bool) error {
	lo, hi, decoded, err := p.chars(0, cdata)
	if err != nil {
		return err
	}
	p.addPending(lo, hi, decoded)
	return nil
}

// chars scans character data starting at p.pos: a text run (quote 0, not
// cdata) up to the next '<' or the end of input, a quoted attribute value
// up to its closing quote, or a CDATA body up to "]]>". It returns the raw
// span [lo, hi) and, when the data needed decoding (a reference or a
// '\r'), reports decoded with the decoded bytes in p.dec. p.pos ends past
// the closing quote or "]]>", or at the '<' ending a text run.
func (p *parser) chars(quote byte, cdata bool) (lo, hi int, decoded bool, err error) {
	src := p.src
	lo = p.pos
	i := lo
	done := lo // src[lo:done] is already in p.dec when decoded
	p.dec = p.dec[:0]
	for {
		for i < len(src) && plainChar[src[i]] {
			i++
		}
		if i >= len(src) {
			if cdata || quote != 0 {
				return 0, 0, false, p.eof()
			}
			hi = i
			break
		}
		c := src[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(src[i:])
			if r == utf8.RuneError && size == 1 {
				p.pos = i
				return 0, 0, false, p.syntaxError("invalid UTF-8")
			}
			if !isInCharacterRange(r) {
				p.pos = i
				return 0, 0, false, p.syntaxError(fmt.Sprintf("illegal character code %U", r))
			}
			i += size
			continue
		}
		switch {
		case c == '>' && quote == 0 && i-2 >= lo && src[i-1] == ']' && src[i-2] == ']':
			if !cdata {
				p.pos = i
				return 0, 0, false, p.syntaxError("unescaped ]]> not in CDATA section")
			}
			hi = i - 2
			p.pos = i + 1
			if decoded {
				p.dec = append(p.dec, src[done:hi]...)
			}
			return lo, hi, decoded, nil
		case c == '<' && !cdata:
			if quote != 0 {
				p.pos = i
				return 0, 0, false, p.syntaxError("unescaped < inside quoted string")
			}
			hi = i
		case c == quote && quote != 0:
			hi = i
			i++
		case c == '&' && !cdata:
			p.dec = append(p.dec, src[done:i]...)
			decoded = true
			var r rune
			if r, i, err = p.reference(i); err != nil {
				return 0, 0, false, err
			}
			p.dec = utf8.AppendRune(p.dec, r)
			done = i
			continue
		case c == '\r':
			p.dec = append(append(p.dec, src[done:i]...), '\n')
			decoded = true
			i++
			if i < len(src) && src[i] == '\n' {
				i++
			}
			done = i
			continue
		case c < 0x20 && c != '\t' && c != '\n':
			p.pos = i
			return 0, 0, false, p.syntaxError(fmt.Sprintf("illegal character code %U", rune(c)))
		default:
			i++
			continue
		}
		break
	}
	p.pos = i
	if decoded {
		p.dec = append(p.dec, src[done:hi]...)
	}
	return lo, hi, decoded, nil
}

// plainChar marks the bytes chars passes over without a second look:
// printable ASCII and tab and newline, except the bytes that can end or
// escape character data.
var plainChar = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	t['\t'], t['\n'] = true, true
	for _, c := range []byte("<>&\"'") {
		t[c] = false
	}
	return t
}()

// reference decodes the entity or character reference at src[i] == '&'
// and returns the rune it stands for and the index past its ';'.
func (p *parser) reference(i int) (rune, int, error) {
	src := p.src
	j := i + 1
	if j < len(src) && src[j] == '#' {
		j++
		base := uint64(10)
		if j < len(src) && src[j] == 'x' {
			base = 16
			j++
		}
		start := j
		var n uint64
		for ; j < len(src); j++ {
			d, ok := digitVal(src[j], base)
			if !ok {
				break
			}
			if n <= utf8.MaxRune {
				n = n*base + d
			}
		}
		if j >= len(src) {
			return 0, 0, p.eof()
		}
		if src[j] != ';' || j == start || n > utf8.MaxRune {
			p.pos = i
			return 0, 0, p.syntaxError("invalid character entity " + src[i:j+1])
		}
		r := rune(n)
		if !utf8.ValidRune(r) {
			r = utf8.RuneError // string(rune(n)) of a surrogate
		}
		if !isInCharacterRange(r) {
			p.pos = i
			return 0, 0, p.syntaxError(fmt.Sprintf("illegal character code %U", r))
		}
		return r, j + 1, nil
	}
	k := j
	for k < len(src) && (src[k] >= utf8.RuneSelf || isNameByte(src[k])) {
		k++
	}
	if k >= len(src) {
		return 0, 0, p.eof()
	}
	if src[k] == ';' {
		var r rune
		switch src[j:k] {
		case "lt":
			r = '<'
		case "gt":
			r = '>'
		case "amp":
			r = '&'
		case "apos":
			r = '\''
		case "quot":
			r = '"'
		}
		if r != 0 {
			return r, k + 1, nil
		}
	}
	p.pos = i
	return 0, 0, p.syntaxError("invalid character entity " + src[i:k+1])
}

func digitVal(c byte, base uint64) (uint64, bool) {
	switch {
	case '0' <= c && c <= '9':
		return uint64(c - '0'), true
	case base == 16 && 'a' <= c && c <= 'f':
		return uint64(c-'a') + 10, true
	case base == 16 && 'A' <= c && c <= 'F':
		return uint64(c-'A') + 10, true
	}
	return 0, false
}

// isInCharacterRange reports whether r is an XML Char.
func isInCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// addPending appends one run of character data (raw src[lo:hi], or p.dec
// when decoded) to the pending text. Comments, processing instructions
// and CDATA sections between two tags do not split a text node.
func (p *parser) addPending(lo, hi int, decoded bool) {
	if !decoded && lo == hi {
		return
	}
	if p.pend == pendNone && !decoded {
		p.pend, p.pendLo, p.pendHi = pendSpan, lo, hi
		return
	}
	if p.pend != pendText {
		p.text = p.text[:0]
		if p.pend == pendSpan {
			p.text = append(p.text, p.src[p.pendLo:p.pendHi]...)
		}
		p.pend = pendText
	}
	if decoded {
		p.text = append(p.text, p.dec...)
	} else {
		p.text = append(p.text, p.src[lo:hi]...)
	}
}

// flushText turns the pending character data into a text node under the
// open element, unless it is whitespace only or lies outside the root.
func (p *parser) flushText() {
	state := p.pend
	p.pend = pendNone
	var s string
	switch state {
	case pendNone:
		return
	case pendSpan:
		s = p.src[p.pendLo:p.pendHi]
		if strings.TrimSpace(s) == "" {
			return
		}
	case pendText:
		if len(bytes.TrimSpace(p.text)) == 0 {
			return
		}
	}
	if len(p.stack) == 0 {
		return
	}
	if state == pendText {
		s = string(p.text)
	}
	parent := p.stack[len(p.stack)-1].el
	p.pre++
	p.post++
	n := p.newNode(parent)
	n.Kind, n.Text = Text, s
	n.ID = NodeID{Pre: p.pre, Post: p.post, Depth: parent.ID.Depth + 1}
}

// --- tree --------------------------------------------------------------

// newNode takes the next node from the slab, appends it in pre order and
// counts it as a child of parent. A full slab is never grown in place
// (that would move nodes already linked); a new chunk is started instead.
func (p *parser) newNode(parent *Node) *Node {
	if len(p.slab) == cap(p.slab) {
		p.slab = make([]Node, 0, max(len(p.nodes)/2, 64))
	}
	p.slab = p.slab[:len(p.slab)+1]
	n := &p.slab[len(p.slab)-1]
	n.Parent = parent
	p.nodes = append(p.nodes, n)
	p.kids = append(p.kids, 0)
	if parent != nil {
		p.kids[parent.ID.Pre-1]++
	}
	return n
}

// finish carves every Children list from one backing array in pre order,
// each capped so an append cannot spill into its neighbour, and builds the
// label index the same way.
func (p *parser) finish() {
	nodes := p.nodes
	p.doc.nodes = nodes
	backing := make([]*Node, len(nodes)-1)
	off := int32(0)
	for i, n := range nodes {
		if c := p.kids[i]; c > 0 {
			n.Children = backing[off : off : off+c]
			off += c
		}
	}
	for _, n := range nodes[1:] {
		n.Parent.Children = append(n.Parent.Children, n)
	}
	p.doc.buildLabelIndex(p.labels)
}
