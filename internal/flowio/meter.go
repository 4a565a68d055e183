package flowio

import (
	"io"

	"plotters/internal/metrics"
)

// countReader sits between a codec and its untrusted byte source,
// tallying bytes into a counter. Until Meter attaches a registry the
// counter is nil and Add is a no-op, so the unmetered read path costs
// one predictable branch per (buffered, typically 64 KiB) read.
type countReader struct {
	r     io.Reader
	bytes *metrics.Counter
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

// meter is the instrumentation every codec reader embeds: the byte
// tally on its source and the count of records it has decoded.
type meter struct {
	format  string
	src     countReader
	records *metrics.Counter
}

// wrap names the meter and returns r behind the byte tally — what the
// codec must read from.
func (m *meter) wrap(format string, r io.Reader) io.Reader {
	m.format, m.src.r = format, r
	return &m.src
}

// Meter attaches reg's instruments to the reader: the
// "flowio/<format>/records" counter (records decoded) and the
// "flowio/<format>/bytes" counter (bytes consumed from the underlying
// source, including read-ahead buffering).
func (m *meter) Meter(reg *metrics.Registry) {
	m.records = reg.Counter("flowio/" + m.format + "/records")
	m.src.bytes = reg.Counter("flowio/" + m.format + "/bytes")
}

// MeterReader attaches reg to r when r is one of this package's codec
// readers (a caller holding only the Reader interface can instrument
// without a type switch of its own). Unknown Reader implementations are
// left untouched. Returns r for chaining.
func MeterReader(r Reader, reg *metrics.Registry) Reader {
	if m, ok := r.(interface{ Meter(*metrics.Registry) }); ok {
		m.Meter(reg)
	}
	return r
}
