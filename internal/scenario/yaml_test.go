package scenario

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestParseYAMLShapes covers the structural subset the DSL relies on:
// nested mappings, sequences of mappings, inline scalars, quoting, and
// comments.
func TestParseYAMLShapes(t *testing.T) {
	src := `# top comment
name: demo
fleet:
  shards: 2
  machines: 4
tenants:
  - name: web
    rate: 1000
  - name: "spiky # not a comment"
    rate: 2.5
flags:
  - alpha
  - beta
`
	root, err := parseYAML(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.get("name").scalar; got != "demo" {
		t.Errorf("name = %q, want demo", got)
	}
	fleet := root.get("fleet")
	if fleet == nil || len(fleet.keys) != 2 {
		t.Fatalf("fleet mapping not parsed: %+v", fleet)
	}
	if n := fleet.get("machines").scalar; n != "4" {
		t.Errorf("machines = %q, want 4", n)
	}
	tenants := root.get("tenants")
	if tenants == nil || !tenants.isSeq || len(tenants.items) != 2 {
		t.Fatalf("tenants sequence not parsed: %+v", tenants)
	}
	if name := tenants.items[1].get("name").scalar; name != "spiky # not a comment" {
		t.Errorf("quoted name with hash = %q", name)
	}
	if r := tenants.items[1].get("rate").scalar; r != "2.5" {
		t.Errorf("rate = %q, want 2.5", r)
	}
	flags := root.get("flags")
	if !flags.isSeq || len(flags.items) != 2 || !flags.items[0].isScalar {
		t.Fatalf("scalar sequence not parsed: %+v", flags)
	}
}

// TestParseYAMLErrors asserts the parser rejects malformed input with a
// line-numbered, actionable message.
func TestParseYAMLErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty", "\n# only comments\n", "empty scenario file"},
		{"tab indent", "a:\n\tb: 1\n", "line 2: tab in indentation (use spaces)"},
		{"bad indent", "a:\n   b: 1\n  c: 2\n", "line 3: unexpected indentation (expected 0 spaces, got 2)"},
		{"duplicate key", "a: 1\na: 2\n", `line 2: duplicate key "a"`},
		{"missing value", "a:\nb: 1\n", `line 1: key "a" has no value`},
		{"no colon", "a: 1\njust words\n", `line 2: expected "key: value" or "key:"`},
		{"invalid key", "a b: 1\n", `line 1: invalid key "a b"`},
		{"seq in map", "a: 1\n- b\n", "line 2: unexpected sequence item inside a mapping"},
		{"empty seq item", "a:\n  - b: 1\n  -\n", "line 3: empty sequence item"},
		{"unterminated quote", `a: "oops` + "\n", "line 1: unterminated quoted string"},
		{"bad escape", `a: "\q"` + "\n", `line 1: unsupported escape \q in quoted string`},
		{"trailing after quote", `a: "x" y` + "\n", "line 1: unexpected content after closing quote"},
		{"indented doc", "  a: 1\n", "line 1: top-level content must not be indented"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseYAML(tc.src)
			if err == nil {
				t.Fatalf("parseYAML accepted malformed input:\n%s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestScalarCoercions checks how the schema types scalars and the
// mismatch text when it cannot, which backs the DSL's "assertion-bound
// type mismatch" checks.
func TestScalarCoercions(t *testing.T) {
	var got struct {
		Num   float64 `yaml:"num"`
		Yes   bool    `yaml:"yes" def:"false"`
		No    bool    `yaml:"no" def:"true"`
		Value float64 `yaml:"value"`
		Frac  int     `yaml:"frac"`
		Word  bool    `yaml:"word"`
	}
	b := compile(reflect.TypeOf(got), "")
	decode := func(src string) error {
		root, err := parseYAML(src)
		if err != nil {
			t.Fatal(err)
		}
		return b.decode(root, unsafe.Pointer(&got), 0)
	}
	if err := decode("num: 3\nyes: true\nno: false\n"); err != nil {
		t.Fatal(err)
	}
	if got.Num != 3 || !got.Yes || got.No {
		t.Errorf("decoded %+v, want num 3, yes true, no false", got)
	}
	for src, want := range map[string]string{
		"value: zero\n":  `value": expected a number, got "zero"`,
		"frac: 0.5\n":    `frac": expected an integer, got "0.5"`,
		"word: zero\n":   `expected true or false, got "zero"`,
		"value: nan\n":   `value": expected a number, got "nan"`,
		"value: -Inf\n":  `value": expected a number, got "-Inf"`,
		"word:\n  - a\n": `expected true or false, got a sequence`,
	} {
		if err := decode(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("decode(%q) = %v, want an error containing %q", src, err, want)
		}
	}
}
