package results

import (
	"strings"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// jsonSafe[c] reports whether the ASCII byte c stands for itself inside a
// JSON string as encoding/json writes it (HTML escaping on): every byte
// from 0x20 up to and including DEL except `"`, `\`, `<`, `>` and `&`.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

// appendJSONString appends s as a quoted JSON string, byte for byte as
// json.Marshal writes it: `"` and `\` and the control bytes \b \f \n \r
// \t get short escapes, the other bytes below 0x20 and `<`, `>`, `&` are
// written \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and each
// invalid UTF-8 byte as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// xmlSafe[c] reports whether the ASCII byte c stands for itself in XML
// text as xml.EscapeText writes it: every byte from 0x20 up to and
// including DEL except `"`, `'`, `&`, `<` and `>`.
var xmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"'&<>` {
		safe[c] = false
	}
	return safe
}()

// appendXMLText appends s escaped for XML element content or a quoted
// attribute, byte for byte as xml.EscapeText writes it: `"` and `'` as
// &#34; and &#39;, `&`, `<`, `>` as entities, tab, newline and carriage
// return as &#x9; &#xA; &#xD;, and every character XML does not allow
// (the other control bytes, U+FFFE, U+FFFF) and every invalid UTF-8 byte
// as U+FFFD.
func appendXMLText(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		var esc string
		width := 1
		if c := s[i]; c < utf8.RuneSelf {
			if xmlSafe[c] {
				i++
				continue
			}
			switch c {
			case '"':
				esc = "&#34;"
			case '\'':
				esc = "&#39;"
			case '&':
				esc = "&amp;"
			case '<':
				esc = "&lt;"
			case '>':
				esc = "&gt;"
			case '\t':
				esc = "&#x9;"
			case '\n':
				esc = "&#xA;"
			case '\r':
				esc = "&#xD;"
			default:
				esc = "\uFFFD" // a control byte XML does not allow
			}
		} else {
			r, size := utf8.DecodeRuneInString(s[i:])
			width = size
			// Past ASCII, XML's Char production leaves out only the
			// surrogates (which do not decode) and U+FFFE, U+FFFF.
			if !(r == utf8.RuneError && size == 1) && r != 0xFFFE && r != 0xFFFF {
				i += size
				continue
			}
			esc = "\uFFFD"
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, esc...)
		i += width
		start = i
	}
	return append(dst, s[start:]...)
}

// appendCSVField appends prefix+s as one RFC 4180 field: quoted, with
// embedded quotes doubled, when s holds a comma, quote or line break. The
// prefix (a blank node's "_:") holds none of those.
func appendCSVField(dst []byte, prefix, s string) []byte {
	if !strings.ContainsAny(s, ",\"\r\n") {
		dst = append(dst, prefix...)
		return append(dst, s...)
	}
	dst = append(dst, '"')
	dst = append(dst, prefix...)
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		dst = append(dst, s[:i+1]...)
		dst = append(dst, '"')
		s = s[i+1:]
	}
	dst = append(dst, s...)
	return append(dst, '"')
}
