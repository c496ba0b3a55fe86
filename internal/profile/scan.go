package profile

import (
	"strconv"
	"strings"

	"sariadne/internal/ontology"
)

// The scanner decodes the documents directories actually receive: plain
// Amigo-S, as Marshal and every client in this repository write it. It
// reads the document as one string, so every name and concept reference
// of the result is a substring of it, and it knows only the fixed
// vocabulary of codec.go.
//
// It declines rather than guesses. Whatever it is not certain
// encoding/xml reads identically makes scanService return false, and
// Unmarshal hands the document to the generic decoder: entity and
// character references, comments, processing instructions, CDATA,
// DOCTYPE, namespace declarations and prefixed names, bytes outside
// printable ASCII plus tab and newline (so "\r\n" too), single-quoted,
// duplicate or unknown attributes, unknown elements, a <process> model,
// text between elements, anything but white space around the root, and
// every semantic error — a malformed concept reference, a QoS number that
// does not parse, a description Validate refuses. The generic decoder is
// therefore the only source of error texts, and the oracle
// FuzzUnmarshalEqualsGeneric holds the scanner to.

// Byte classes. Tab and newline count as white space between markup but
// are refused inside attribute values; '>' is legal in a text node but
// "]]>" is not, so text refuses it outright.
const (
	clsSpace = 1 << iota // separates markup: ' ', '\t', '\n'
	clsName              // ASCII letter or digit: the vocabulary's names
	clsAttr              // may stand inside a double-quoted attribute value
	clsText              // may stand inside a text node
)

var byteClass = func() (t [256]uint8) {
	for b := 0x20; b < 0x7f; b++ {
		t[b] = clsAttr | clsText
	}
	t['&'] = 0
	t['<'] = 0
	t['"'] &^= clsAttr
	t['>'] &^= clsText
	t['\t'] = clsSpace | clsText
	t['\n'] = clsSpace | clsText
	t[' '] |= clsSpace
	for _, r := range [][2]byte{{'a', 'z'}, {'A', 'Z'}, {'0', '9'}} {
		for b := int(r[0]); b <= int(r[1]); b++ {
			t[b] |= clsName
		}
	}
	return t
}()

// scanner is a cursor over a document. Its methods allocate nothing:
// what they return are substrings of s.
type scanner struct {
	s string
	i int
}

// What follows the name of a start tag, as attr reports it.
const (
	tagDeclined = iota
	tagAttr     // an attribute was read
	tagOpen     // '>': content and an end tag follow
	tagEmpty    // "/>"
)

// peek returns the next byte, or 0 — which is in no class — at the end.
//
//sdp:hotpath
func (sc *scanner) peek() byte {
	if sc.i < len(sc.s) {
		return sc.s[sc.i]
	}
	return 0
}

// run advances over bytes of the class and returns them.
//
//sdp:hotpath
func (sc *scanner) run(class uint8) string {
	start := sc.i
	for sc.i < len(sc.s) && byteClass[sc.s[sc.i]]&class != 0 {
		sc.i++
	}
	return sc.s[start:sc.i]
}

// child advances to the next tag inside the element named parent, past
// white space only. It returns the name of the child whose start tag it
// entered, or "" once it has consumed parent's end tag. The document's
// root is the child of "".
//
//sdp:hotpath
func (sc *scanner) child(parent string) (name string, ok bool) {
	sc.run(clsSpace)
	if sc.peek() != '<' {
		return "", false
	}
	sc.i++
	if sc.peek() == '/' {
		sc.i++
		return "", parent != "" && sc.endTag(parent)
	}
	name = sc.run(clsName)
	switch sc.peek() {
	case ' ', '\t', '\n', '/', '>':
		return name, name != ""
	}
	return "", false
}

// endTag consumes the rest of an end tag whose "</" has been read.
//
//sdp:hotpath
func (sc *scanner) endTag(name string) bool {
	if !strings.HasPrefix(sc.s[sc.i:], name) {
		return false
	}
	sc.i += len(name)
	sc.run(clsSpace)
	if sc.peek() != '>' {
		return false
	}
	sc.i++
	return true
}

// attr reads the next piece of a start tag: one attribute, or its end.
//
//sdp:hotpath
func (sc *scanner) attr() (name, value string, tag int) {
	separated := sc.run(clsSpace) != ""
	switch sc.peek() {
	case '>':
		sc.i++
		return "", "", tagOpen
	case '/':
		if strings.HasPrefix(sc.s[sc.i:], "/>") {
			sc.i += 2
			return "", "", tagEmpty
		}
		return "", "", tagDeclined
	}
	if name = sc.run(clsName); name == "" || !separated {
		return "", "", tagDeclined
	}
	sc.run(clsSpace)
	if sc.peek() != '=' {
		return "", "", tagDeclined
	}
	sc.i++
	sc.run(clsSpace)
	if sc.peek() != '"' {
		return "", "", tagDeclined
	}
	sc.i++
	value = sc.run(clsAttr)
	if sc.peek() != '"' {
		return "", "", tagDeclined
	}
	sc.i++
	return name, value, tagAttr
}

// attrs reads a start tag's attributes into vals, which is indexed like
// names; an attribute outside names, or one given twice, declines. It
// reports how the tag ended.
//
//sdp:hotpath
func (sc *scanner) attrs(names []string, vals []string) int {
	var seen uint
	for {
		name, value, tag := sc.attr()
		if tag != tagAttr {
			return tag
		}
		i := 0
		for i < len(names) && names[i] != name {
			i++
		}
		if i == len(names) || seen&(1<<i) != 0 {
			return tagDeclined
		}
		seen |= 1 << i
		vals[i] = value
	}
}

// text reads the content of an element that holds one text node and
// nothing else, through its end tag. White space is content: the generic
// decoder does not trim a string field either.
//
//sdp:hotpath
func (sc *scanner) text(name string) (string, bool) {
	switch sc.attrs(nil, nil) {
	case tagEmpty:
		return "", true
	case tagOpen:
		t := sc.run(clsText)
		if !strings.HasPrefix(sc.s[sc.i:], "</") {
			return "", false
		}
		sc.i += 2
		return t, sc.endTag(name)
	}
	return "", false
}

// empty reads the attributes of an element that has no content.
//
//sdp:hotpath
func (sc *scanner) empty(name string, names []string, vals []string) bool {
	switch sc.attrs(names, vals) {
	case tagEmpty:
		return true
	case tagOpen:
		child, ok := sc.child(name)
		return ok && child == ""
	}
	return false
}

// Attribute names per element, in the order the decoding functions index
// their values.
var (
	serviceAttrs     = []string{"name", "provider"}
	codeVersionAttrs = []string{"ontology", "version"}
	capabilityAttrs  = []string{"name", "category"}
	qosAttrs         = []string{"name", "value"}
	qosRequireAttrs  = []string{"name", "min", "max"}
)

// scanService decodes a plain document, or declines.
//
//sdp:hotpath
func scanService(doc string) (*Service, bool) {
	sc := scanner{s: doc}
	if root, ok := sc.child(""); !ok || root != "service" {
		return nil, false
	}
	var at [2]string
	tag := sc.attrs(serviceAttrs, at[:])
	if tag == tagDeclined {
		return nil, false
	}
	svc := newService(doc, at[0], at[1])
	for tag == tagOpen {
		child, ok := sc.child("service")
		if !ok {
			return nil, false
		}
		switch child {
		case "":
			tag = tagEmpty
		case "codeVersion":
			ok = sc.codeVersion(svc)
		case "provided":
			ok = sc.capability(child, &svc.Provided)
		case "required":
			ok = sc.capability(child, &svc.Required)
		default:
			ok = false
		}
		if !ok {
			return nil, false
		}
	}
	if sc.run(clsSpace); sc.i != len(doc) || svc.Validate() != nil {
		return nil, false
	}
	return svc, true
}

// newService allocates the result with its capability lists at their
// final size: in a document the scanner goes on to accept, "<provided"
// opens a provided capability and nothing else.
func newService(doc, name, provider string) *Service {
	svc := &Service{Name: name, Provider: provider}
	if n := strings.Count(doc, "<provided"); n > 0 {
		svc.Provided = make([]*Capability, 0, n)
	}
	if n := strings.Count(doc, "<required"); n > 0 {
		svc.Required = make([]*Capability, 0, n)
	}
	return svc
}

func (sc *scanner) codeVersion(svc *Service) bool {
	var at [2]string
	if !sc.empty("codeVersion", codeVersionAttrs, at[:]) {
		return false
	}
	if svc.CodeVersions == nil {
		svc.CodeVersions = make(map[string]string, strings.Count(sc.s, "<codeVersion"))
	}
	svc.CodeVersions[at[0]] = at[1]
	return true
}

// capability decodes one <provided> or <required> element, whose name has
// been read, and appends it to dst.
func (sc *scanner) capability(element string, dst *[]*Capability) bool {
	var at [2]string
	tag := sc.attrs(capabilityAttrs, at[:])
	if tag == tagDeclined {
		return false
	}
	c := &Capability{Name: at[0]}
	if at[1] != "" {
		var err error
		if c.Category, err = ontology.ParseRef(at[1]); err != nil {
			return false
		}
	}
	// Inputs, outputs and properties arrive interleaved; they wait here,
	// off the heap for a capability of ordinary size, until the size of
	// each list is known.
	var bufs [3][8]ontology.Ref
	lists := [3][]ontology.Ref{bufs[0][:0], bufs[1][:0], bufs[2][:0]}
	for tag == tagOpen {
		child, ok := sc.child(element)
		if !ok {
			return false
		}
		list := -1
		switch child {
		case "":
			tag = tagEmpty
		case "input":
			list = 0
		case "output":
			list = 1
		case "property":
			list = 2
		case "qos":
			ok = sc.qos(c)
		case "qosRequire":
			ok = sc.qosRequire(c)
		default:
			ok = false
		}
		if list >= 0 {
			t, closed := sc.text(child)
			ref, err := ontology.ParseRef(t)
			ok = closed && err == nil
			lists[list] = append(lists[list], ref)
		}
		if !ok {
			return false
		}
	}
	// One backing array, cut into three lists that cannot grow into each
	// other. A list without elements is empty, not nil, as the generic
	// decoder's is.
	in, out := len(lists[0]), len(lists[0])+len(lists[1])
	all := make([]ontology.Ref, out+len(lists[2]))
	copy(all, lists[0])
	copy(all[in:], lists[1])
	copy(all[out:], lists[2])
	c.Inputs, c.Outputs, c.Properties = all[:in:in], all[in:out:out], all[out:]
	*dst = append(*dst, c)
	return true
}

func (sc *scanner) qos(c *Capability) bool {
	var at [2]string
	if !sc.empty("qos", qosAttrs, at[:]) {
		return false
	}
	q := QoSValue{Name: at[0]}
	if !parseFloat(at[1], &q.Value) {
		return false
	}
	c.QoSProvided = append(c.QoSProvided, q)
	return true
}

func (sc *scanner) qosRequire(c *Capability) bool {
	var at [3]string
	if !sc.empty("qosRequire", qosRequireAttrs, at[:]) {
		return false
	}
	q := QoSConstraint{Name: at[0], Min: Unbounded(), Max: Unbounded()}
	if !parseFloat(at[1], &q.Min) || !parseFloat(at[2], &q.Max) {
		return false
	}
	c.QoSRequired = append(c.QoSRequired, q)
	return true
}

// parseFloat stores a non-empty attribute's number in dst and leaves dst
// alone for an empty or absent one.
func parseFloat(s string, dst *float64) bool {
	if s == "" {
		return true
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return false
	}
	*dst = v
	return true
}
