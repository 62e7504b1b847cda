// Package scenario compiles declarative scenario files — fleet specs,
// workload mixes, timed fault/load schedules, and assertions — into
// seeded, deterministic runs on the partitioned simulation kernel.
//
// A scenario is a small YAML-subset document (see Parse) instead of a
// Go experiment: the growth path for scenario breadth is adding a data
// file under scenarios/, not writing another internal/experiments
// driver. The subset is parsed by this file's hand-rolled parser so
// go.mod stays dependency-free. Supported syntax:
//
//   - mappings:   `key: value` scalars, or `key:` followed by an
//     indented block (mapping or sequence)
//   - sequences:  `- item` scalar items, or `- key: value` mapping
//     items whose remaining keys sit two spaces deeper
//   - scalars:    bare tokens or double-quoted strings with \" \\ \n
//     \t escapes; the schema (spec.go) types numbers and booleans
//   - comments:   `#` to end of line (outside quotes)
//
// Indentation is spaces only; tabs are a parse error. Every parse and
// decode error carries the 1-based source line, so a broken scenario
// file points at itself.
package scenario

import (
	"fmt"
	"strings"
)

// node is one parsed value: a scalar, a mapping (keys in file order),
// or a sequence.
type node struct {
	line     int
	isScalar bool
	isSeq    bool
	scalar   string
	keys     []string
	vals     []*node
	items    []*node
}

// shape names the node's shape for error messages.
func (n *node) shape() string {
	switch {
	case n.isScalar:
		return "a scalar"
	case n.isSeq:
		return "a sequence"
	default:
		return "a mapping"
	}
}

// get returns the mapping value for key, or nil.
func (n *node) get(key string) *node {
	for i, k := range n.keys {
		if k == key {
			return n.vals[i]
		}
	}
	return nil
}

// srcLine is one significant source line after comment stripping.
type srcLine struct {
	num    int
	indent int
	text   string
}

type yparser struct {
	lines []srcLine
	pos   int
}

// parseYAML parses a scenario document into its root mapping.
func parseYAML(src string) (*node, error) {
	lines, err := splitLines(src)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty scenario file")
	}
	if lines[0].indent != 0 {
		return nil, fmt.Errorf("line %d: top-level content must not be indented", lines[0].num)
	}
	p := &yparser{lines: lines}
	root, err := p.parseMap(0)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		return nil, fmt.Errorf("line %d: unexpected content after document", p.lines[p.pos].num)
	}
	return root, nil
}

// splitLines strips comments and blanks and computes indentation.
func splitLines(src string) ([]srcLine, error) {
	var out []srcLine
	for i, raw := range strings.Split(src, "\n") {
		text := strings.TrimRight(stripComment(raw), " \r")
		if strings.TrimSpace(text) == "" {
			continue
		}
		indent := 0
		for indent < len(text) && text[indent] == ' ' {
			indent++
		}
		if indent < len(text) && text[indent] == '\t' {
			return nil, fmt.Errorf("line %d: tab in indentation (use spaces)", i+1)
		}
		out = append(out, srcLine{num: i + 1, indent: indent, text: text[indent:]})
	}
	return out, nil
}

// stripComment removes a trailing `#` comment, respecting quoted
// strings. A `#` starts a comment at line start or after whitespace.
func stripComment(s string) string {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case '\\':
			if inQuote {
				i++
			}
		case '#':
			if !inQuote && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t') {
				return s[:i]
			}
		}
	}
	return s
}

// keySplit splits `key: value` (or `key:`). ok is false when the line
// is not a mapping entry (no colon followed by a space or end of line).
func keySplit(text string) (key, rest string, ok bool) {
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '"':
			return "", "", false // quoted scalar, not a key
		case ':':
			if i+1 == len(text) {
				return text[:i], "", true
			}
			if text[i+1] == ' ' {
				return text[:i], strings.TrimSpace(text[i+1:]), true
			}
			return "", "", false // `a:b` is a plain scalar
		}
	}
	return "", "", false
}

func validKey(key string) bool {
	if key == "" {
		return false
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// parseBlock parses the block starting at the current line, which is
// either a sequence (dash items) or a mapping.
func (p *yparser) parseBlock(indent int) (*node, error) {
	l := p.lines[p.pos]
	if l.text == "-" || strings.HasPrefix(l.text, "- ") {
		return p.parseSeq(indent)
	}
	return p.parseMap(indent)
}

// parseMap parses mapping entries at exactly the given indent.
func (p *yparser) parseMap(indent int) (*node, error) {
	n := &node{line: p.lines[p.pos].num}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("line %d: unexpected indentation (expected %d spaces, got %d)",
				l.num, indent, l.indent)
		}
		if l.text == "-" || strings.HasPrefix(l.text, "- ") {
			return nil, fmt.Errorf("line %d: unexpected sequence item inside a mapping", l.num)
		}
		key, rest, ok := keySplit(l.text)
		if !ok {
			return nil, fmt.Errorf("line %d: expected \"key: value\" or \"key:\", got %q", l.num, l.text)
		}
		if !validKey(key) {
			return nil, fmt.Errorf("line %d: invalid key %q", l.num, key)
		}
		if n.get(key) != nil {
			return nil, fmt.Errorf("line %d: duplicate key %q", l.num, key)
		}
		p.pos++
		var child *node
		if rest != "" {
			sc, err := unquote(rest, l.num)
			if err != nil {
				return nil, err
			}
			child = &node{line: l.num, isScalar: true, scalar: sc}
		} else {
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				return nil, fmt.Errorf("line %d: key %q has no value (expected a scalar after the colon or an indented block below)",
					l.num, key)
			}
			var err error
			child, err = p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
		}
		n.keys = append(n.keys, key)
		n.vals = append(n.vals, child)
	}
	return n, nil
}

// parseSeq parses `- item` entries at exactly the given indent. A
// mapping item's first key rides the dash line; its remaining keys are
// re-parsed two spaces deeper.
func (p *yparser) parseSeq(indent int) (*node, error) {
	n := &node{line: p.lines[p.pos].num, isSeq: true}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("line %d: unexpected indentation (expected %d spaces, got %d)",
				l.num, indent, l.indent)
		}
		if l.text != "-" && !strings.HasPrefix(l.text, "- ") {
			return nil, fmt.Errorf("line %d: expected a \"- \" sequence item, got %q", l.num, l.text)
		}
		rest := strings.TrimSpace(strings.TrimPrefix(l.text, "-"))
		var item *node
		if rest == "" {
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				return nil, fmt.Errorf("line %d: empty sequence item", l.num)
			}
			var err error
			item, err = p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
		} else if _, _, ok := keySplit(rest); ok {
			// Mapping item: rewrite the dash line as its first key at
			// the item body indent and parse the mapping from there.
			p.lines[p.pos] = srcLine{num: l.num, indent: indent + 2, text: rest}
			var err error
			item, err = p.parseMap(indent + 2)
			if err != nil {
				return nil, err
			}
		} else {
			sc, err := unquote(rest, l.num)
			if err != nil {
				return nil, err
			}
			item = &node{line: l.num, isScalar: true, scalar: sc}
			p.pos++
		}
		n.items = append(n.items, item)
	}
	return n, nil
}

// unquote resolves a scalar token: double-quoted strings get their
// escapes processed; bare tokens are returned verbatim.
func unquote(s string, line int) (string, error) {
	if !strings.HasPrefix(s, `"`) {
		return s, nil
	}
	var b strings.Builder
	i := 1
	for i < len(s) {
		switch s[i] {
		case '"':
			if i+1 != len(s) {
				return "", fmt.Errorf("line %d: unexpected content after closing quote in %s", line, s)
			}
			return b.String(), nil
		case '\\':
			i++
			if i >= len(s) {
				return "", fmt.Errorf("line %d: dangling escape in quoted string", line)
			}
			switch s[i] {
			case '"', '\\':
				b.WriteByte(s[i])
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				return "", fmt.Errorf("line %d: unsupported escape \\%c in quoted string", line, s[i])
			}
		default:
			b.WriteByte(s[i])
		}
		i++
	}
	return "", fmt.Errorf("line %d: unterminated quoted string %s", line, s)
}
