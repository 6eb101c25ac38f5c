package canon

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

type asn uint32

func TestAppendUintsMatchesFmt(t *testing.T) {
	for _, xs := range [][]asn{nil, {}, {0}, {7}, {1, 20, 300}, {4294967295, 0, 65000}} {
		want := fmt.Sprintf("%v", xs)
		if got := string(AppendUints([]byte("x"), xs)); got != "x"+want {
			t.Errorf("AppendUints(%v) = %q, want %q", []asn(xs), got, "x"+want)
		}
	}
}

// chunkRecorder records the size of every write it receives.
type chunkRecorder struct {
	bytes.Buffer
	sizes []int
}

func (r *chunkRecorder) Write(p []byte) (int, error) {
	r.sizes = append(r.sizes, len(p))
	return r.Buffer.Write(p)
}

func TestWriterChunks(t *testing.T) {
	var rec chunkRecorder
	var want strings.Builder
	c := NewWriter(&rec)
	for i := 0; i < 10000; i++ {
		line := fmt.Sprintf("record %d\n", i)
		want.WriteString(line)
		c.B = append(c.B, line...)
		c.Spill()
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.String() != want.String() {
		t.Fatal("chunked output differs from the appended records")
	}
	if len(rec.sizes) < 3 {
		t.Fatalf("%d writes for %d bytes; want several chunks", len(rec.sizes), want.Len())
	}
	for i, n := range rec.sizes[:len(rec.sizes)-1] {
		if n < ChunkSize {
			t.Fatalf("write %d carried %d bytes, under the %d-byte chunk", i, n, ChunkSize)
		}
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("sink full")
}

func TestWriterStopsAtFirstError(t *testing.T) {
	f := &failWriter{}
	c := NewWriter(f)
	for i := 0; i < 3; i++ {
		c.B = append(c.B, make([]byte, ChunkSize)...)
		c.Spill()
	}
	if err := c.Close(); err == nil || f.n != 1 {
		t.Fatalf("Close = %v after %d writes; want the first error and no further writes", err, f.n)
	}
}
