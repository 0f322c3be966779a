package sample

import "testing"

// FuzzParseSpec drives the -sample flag parser with arbitrary strings.
// The seed corpus lives in testdata/fuzz/FuzzParseSpec. Properties:
// the parser never panics, every Config it accepts passes Validate,
// and an accepted Config survives a String/ParseSpec round trip
// unchanged (the campaign digest is built from the parsed fields, so a
// lossy rendering would fork the cache).
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted %+v, which Validate rejects: %v", spec, c, err)
		}
		back, err := ParseSpec(c.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %+v, but its String %q does not parse: %v", spec, c, c.String(), err)
		}
		if back != c {
			t.Fatalf("ParseSpec(%q) = %+v, round trip through %q gives %+v", spec, c, c.String(), back)
		}
	})
}
