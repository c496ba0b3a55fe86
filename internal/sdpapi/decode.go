package sdpapi

import (
	"bytes"
	"encoding/json"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodeRequest reads one request datagram. The requests clients send are
// flat objects of Request's keys with string and boolean values, and a
// scanner reads those without reflection; anything else — another key, a
// key twice, a key in another case, null, a number, a nested value, an
// escape it is not certain of — goes to encoding/json, which is therefore
// the only source of error texts and the oracle FuzzDecodeRequestEqualsJSON
// holds the scanner to.
func DecodeRequest(data []byte) (Request, error) {
	if req, ok := scanRequest(data); ok {
		return req, nil
	}
	var req Request
	err := json.Unmarshal(data, &req)
	return req, err
}

// Request's keys, as bits of the set scanRequest has seen.
const (
	keyOp = 1 << iota
	keyDoc
	keyName
	keyToken
	keyTrace
)

// scanRequest decodes a flat request object, or declines.
func scanRequest(data []byte) (req Request, ok bool) {
	i := skipSpace(data, 0)
	if i >= len(data) || data[i] != '{' {
		return Request{}, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return req, skipSpace(data, i+1) == len(data)
	}
	seen := 0
	for {
		key, next, ok := rawString(data, i)
		if !ok {
			return Request{}, false
		}
		i = skipSpace(data, next)
		if i >= len(data) || data[i] != ':' {
			return Request{}, false
		}
		i = skipSpace(data, i+1)
		var bit int
		switch string(key) {
		case "op":
			bit = keyOp
			if raw, next, plain := rawString(data, i); plain {
				req.Op, i = internOp(raw), next
			} else {
				req.Op, i, ok = stringValue(data, i)
			}
		case "doc":
			bit = keyDoc
			req.Doc, i, ok = stringValue(data, i)
		case "name":
			bit = keyName
			req.Name, i, ok = stringValue(data, i)
		case "token":
			bit = keyToken
			req.Token, i, ok = stringValue(data, i)
		case "trace":
			bit = keyTrace
			req.Trace, i, ok = boolValue(data, i)
		}
		if bit == 0 || !ok || seen&bit != 0 {
			return Request{}, false
		}
		seen |= bit
		i = skipSpace(data, i)
		if i >= len(data) {
			return Request{}, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return req, skipSpace(data, i+1) == len(data)
		default:
			return Request{}, false
		}
	}
}

// ops are the op names a client sends.
var ops = [...]string{OpQuery, OpRegister, OpDeregister, OpAddOntology, OpGetTable, OpStats, OpPeers, OpTenants}

// internOp returns the constant for a known op name, so that the common
// requests allocate no string for it, and a copy of any other.
func internOp(raw []byte) string {
	for _, op := range ops {
		if string(raw) == op {
			return op
		}
	}
	return string(raw)
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON white space.
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// rawString reads a string without escapes and of printable ASCII starting
// at data[i], and returns its bytes and the index after its closing quote.
// It declines anything else: it reads keys, and every key of Request is
// such a string.
func rawString(data []byte, i int) (raw []byte, next int, ok bool) {
	if i >= len(data) || data[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(data); j++ {
		switch b := data[j]; {
		case b == '"':
			return data[i+1 : j], j + 1, true
		case b < 0x20 || b >= 0x7f || b == '\\':
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// boolValue reads true or false at data[i].
func boolValue(data []byte, i int) (v bool, next int, ok bool) {
	rest := data[i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		return true, i + 4, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		return false, i + 5, true
	}
	return false, 0, false
}

// stringValue reads the JSON string at data[i] into a string of its own:
// the datagram's buffer is reused, and the document outlives the request.
// A first pass finds the closing quote and the decoded length, so that the
// string is allocated once and at its size. It declines a byte that is not
// valid UTF-8 and a surrogate escape that is not one half of a pair, which
// encoding/json replaces with U+FFFD, and a control character or an
// unknown escape, which it refuses.
func stringValue(data []byte, i int) (s string, next int, ok bool) {
	if i >= len(data) || data[i] != '"' {
		return "", 0, false
	}
	start := i + 1
	saved := 0 // bytes the escapes save once decoded
	for j := start; ; {
		for j < len(data) && plainByte[data[j]] {
			j++
		}
		if j >= len(data) {
			return "", 0, false
		}
		switch b := data[j]; {
		case b == '"':
			if saved == 0 { // every escape is longer than what it stands for
				return string(data[start:j]), j + 1, true
			}
			return unescape(data[start:j], j-start-saved), j + 1, true
		case b == '\\':
			r, n := escape(data, j)
			if n == 0 {
				return "", 0, false
			}
			saved += n - utf8.RuneLen(r)
			j += n
		case b < 0x20:
			return "", 0, false
		default:
			r, n := utf8.DecodeRune(data[j:])
			if r == utf8.RuneError && n == 1 {
				return "", 0, false
			}
			j += n
		}
	}
}

// plainByte marks the bytes that stand for themselves inside a string:
// ASCII from the space up, but the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// escape decodes the escape sequence starting at data[i], a backslash, and
// returns the rune and the sequence's length; n is 0 for an escape
// stringValue declines.
func escape(data []byte, i int) (r rune, n int) {
	if i+1 >= len(data) {
		return 0, 0
	}
	switch data[i+1] {
	case '"', '\\', '/':
		return rune(data[i+1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		r := hex4(data, i+2)
		switch {
		case r < 0:
			return 0, 0
		case utf16.IsSurrogate(r):
			if r >= 0xdc00 || i+7 >= len(data) || data[i+6] != '\\' || data[i+7] != 'u' {
				return 0, 0
			}
			if pair := utf16.DecodeRune(r, hex4(data, i+8)); pair != utf8.RuneError {
				return pair, 12
			}
			return 0, 0
		}
		return r, 6
	}
	return 0, 0
}

// hex4 reads the four hex digits at data[i], or returns -1.
func hex4(data []byte, i int) rune {
	if i+4 > len(data) {
		return -1
	}
	var r rune
	for _, c := range data[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unescape decodes raw, which stringValue has checked, into a string of
// size bytes.
func unescape(raw []byte, size int) string {
	var sb strings.Builder
	sb.Grow(size)
	for {
		k := bytes.IndexByte(raw, '\\')
		if k < 0 {
			sb.Write(raw)
			return sb.String()
		}
		sb.Write(raw[:k])
		r, n := escape(raw, k)
		sb.WriteRune(r)
		raw = raw[k+n:]
	}
}
