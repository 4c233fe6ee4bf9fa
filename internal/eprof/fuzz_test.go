package eprof

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"
)

// FuzzParse feeds Parse arbitrary bytes: it must never panic, and it
// must return exactly one of a profile or an error. The corpus seeds
// are a real WritePprof output, its decompressed protobuf and
// truncations of both.
func FuzzParse(f *testing.F) {
	c := NewCollector("root")
	c.Apply(buildPlan(c), 1.5, 1_500_000_000, 1.07)
	var gz bytes.Buffer
	if err := Build(c).WritePprof(&gz, SampleTypeVTime); err != nil {
		f.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz.Bytes()))
	if err != nil {
		f.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range [][]byte{gz.Bytes(), raw} {
		f.Add(b)
		for _, n := range []int{0, 1, 2, 10, len(b) / 2, len(b) - 1} {
			f.Add(b[:n])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(bytes.NewReader(data))
		if (p == nil) == (err == nil) {
			t.Fatalf("Parse returned profile %v and error %v; want exactly one", p, err)
		}
	})
}
