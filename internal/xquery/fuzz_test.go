package xquery

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/workload"
)

// FuzzXQueryParse: the XQuery front end never panics on arbitrary input,
// and for anything it accepts the translated pattern renders to text that
// the pattern parser reads back, with the rendering a fixed point.
func FuzzXQueryParse(f *testing.F) {
	for _, q := range workload.XMarkXQuery() {
		f.Add(q.Text)
	}
	f.Add(`for $p in //painting return string($p/@id)`)
	f.Add(`for $p in //painting where $p/year >= "1850" and $p/year < "1870" return $p/name/text()`)
	f.Add(`for $a in //a, $b in //b where $a/@k = $b/@k return ($a, $b)`)
	f.Add(`for $x in //x where "v" = $x/y return $x`)
	f.Add(`for $x in //x where contains($x, "a\"b") return $x`)
	f.Add(`for $x in`)
	f.Add(`for $x in //x return string(`)
	f.Add(`for $x in //x where $x/y = return $x`)
	f.Add(`for $x in $y/z return $x`)
	f.Add(`return`)
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		text := q.String()
		q2, err := pattern.Parse(text)
		if err != nil {
			t.Fatalf("accepted %q but its pattern %q does not parse: %v", input, text, err)
		}
		if again := q2.String(); again != text {
			t.Fatalf("rendering is not a fixed point:\n  input:  %q\n  first:  %q\n  second: %q", input, text, again)
		}
	})
}
