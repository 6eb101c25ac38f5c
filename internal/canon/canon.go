// Package canon streams the simulator's canonical texts — the route-state,
// FIB and DNS-zone renderings the control plane fingerprints — to an
// io.Writer in fixed-size chunks.
//
// Each digest has exactly one encoder, written in append style
// (strconv.Append*, netip AppendTo) against a Writer's pending chunk. The
// same encoder feeds either sink: a strings.Builder when a caller wants the
// text itself, or a hash when only the fingerprint is needed, in which case
// the text is never materialized. Only the chunk is ever resident, so the
// cost of a fingerprint is the encoding alone, independent of how large the
// text would be.
package canon

import (
	"io"
	"strconv"
)

// ChunkSize is the flush threshold: a Writer hands its pending bytes to the
// sink once they reach this size.
const ChunkSize = 32 << 10

// Writer accumulates canonical text in one reusable chunk. Encoders append
// to B directly and call Spill at record boundaries; Close writes the tail.
type Writer struct {
	// B holds the pending bytes not yet handed to the sink.
	B   []byte
	w   io.Writer
	err error
}

// NewWriter returns a Writer that flushes to w. The chunk is allocated once
// with headroom, so a record that straddles the threshold does not regrow
// it.
func NewWriter(w io.Writer) *Writer {
	return &Writer{B: make([]byte, 0, 2*ChunkSize), w: w}
}

// Spill writes the pending bytes once they fill a chunk. Call it only
// between records: an encoder may still truncate the record it is writing.
func (c *Writer) Spill() {
	if len(c.B) >= ChunkSize {
		c.flush()
	}
}

// Close writes whatever is pending and returns the first write error.
func (c *Writer) Close() error {
	c.flush()
	return c.err
}

func (c *Writer) flush() {
	if c.err == nil && len(c.B) > 0 {
		_, c.err = c.w.Write(c.B)
	}
	c.B = c.B[:0]
}

// AppendUints appends xs the way fmt's %v verb prints an unsigned integer
// slice: space-separated decimals in square brackets, "[]" when empty.
//
//cdnlint:allocfree
func AppendUints[T ~uint32](b []byte, xs []T) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, uint64(x), 10)
	}
	return append(b, ']')
}
