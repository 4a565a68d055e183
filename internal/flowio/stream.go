package flowio

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"plotters/internal/collector"
	"plotters/internal/flow"
)

// Reader is the streaming decode interface implemented by every
// codec: Next returns records one at a time until io.EOF.
type Reader interface {
	Next() (flow.Record, error)
}

// Writer is the streaming encode interface implemented by every codec.
type Writer interface {
	Write(r *flow.Record) error
	Flush() error
}

// Format is one row of Formats.
type Format struct {
	// Name is the format's name on command lines ("-format csv").
	Name string
	// Ext is the file extension tools give traces they write.
	Ext string
	// NewReader and NewWriter open the format's codec.
	NewReader func(io.Reader) Reader
	NewWriter func(io.Writer) Writer
}

// Formats is the table of trace formats: the project's native binary
// stream, two text forms, and one packet-stream format per export
// protocol the software exporter can speak (concatenated wire
// datagrams — see PacketWriter). Adding a format is adding a row.
var Formats = [...]Format{
	{"binary", ".flows", func(r io.Reader) Reader { return NewBinaryReader(r) }, func(w io.Writer) Writer { return NewBinaryWriter(w) }},
	{"csv", ".csv", func(r io.Reader) Reader { return NewCSVReader(r) }, func(w io.Writer) Writer { return NewCSVWriter(w) }},
	{"jsonl", ".jsonl", func(r io.Reader) Reader { return NewJSONLReader(r) }, func(w io.Writer) Writer { return NewJSONLWriter(w) }},
	packetFormat("netflow", ".nf5", "v5"),
	packetFormat("ipfix", ".ipfix", "ipfix"),
	packetFormat("sflow", ".sflow", "sflow"),
}

// packetFormat is the row for the packet stream of one export protocol.
func packetFormat(name, ext, protocol string) Format {
	proto, err := collector.ExportProtocol(protocol)
	if err != nil {
		panic(err) // a typo in the table above
	}
	return Format{name, ext,
		func(r io.Reader) Reader { return NewPacketReader(r, name, proto) },
		func(w io.Writer) Writer { return NewPacketWriter(w, proto) }}
}

// Lookup returns the row called name; the error lists every row.
func Lookup(name string) (*Format, error) {
	for i := range Formats {
		if Formats[i].Name == name {
			return &Formats[i], nil
		}
	}
	return nil, fmt.Errorf("flowio: unknown trace format %q (have %s)", name, Names())
}

// Names lists the rows' names, for help strings.
func Names() string {
	names := make([]string, len(Formats))
	for i := range Formats {
		names[i] = Formats[i].Name
	}
	return strings.Join(names, ", ")
}

// CSVReader streams records from CSV.
type CSVReader struct {
	meter
	cr     *csv.Reader
	header bool
	line   int
}

// NewCSVReader wraps r.
func NewCSVReader(r io.Reader) *CSVReader {
	c := &CSVReader{}
	c.cr = csv.NewReader(c.meter.wrap("csv", r))
	c.cr.FieldsPerRecord = len(csvHeader)
	return c
}

// Next returns the next record, or io.EOF at end of input.
func (c *CSVReader) Next() (flow.Record, error) {
	if !c.header {
		header, err := c.cr.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return flow.Record{}, fmt.Errorf("flowio: empty CSV input: %w", err)
			}
			return flow.Record{}, fmt.Errorf("flowio: reading CSV header: %w", err)
		}
		for i, want := range csvHeader {
			if header[i] != want {
				return flow.Record{}, fmt.Errorf("flowio: CSV column %d is %q, want %q", i, header[i], want)
			}
		}
		c.header = true
		c.line = 1
	}
	c.line++
	row, err := c.cr.Read()
	if errors.Is(err, io.EOF) {
		return flow.Record{}, io.EOF
	}
	if err != nil {
		return flow.Record{}, fmt.Errorf("flowio: reading CSV line %d: %w", c.line, err)
	}
	rec, err := parseCSVRow(row)
	if err != nil {
		return flow.Record{}, fmt.Errorf("flowio: CSV line %d: %w", c.line, err)
	}
	c.records.Add(1)
	return rec, nil
}

// CSVWriter streams records to CSV.
type CSVWriter struct {
	cw     *csv.Writer
	header bool
	row    []string
}

// NewCSVWriter wraps w.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{cw: csv.NewWriter(w), row: make([]string, len(csvHeader))}
}

// Write appends one record.
func (c *CSVWriter) Write(r *flow.Record) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("flowio: refusing to encode invalid record: %w", err)
	}
	if !c.header {
		if err := c.cw.Write(csvHeader); err != nil {
			return fmt.Errorf("flowio: writing CSV header: %w", err)
		}
		c.header = true
	}
	formatCSVRow(r, c.row)
	if err := c.cw.Write(c.row); err != nil {
		return fmt.Errorf("flowio: writing CSV row: %w", err)
	}
	return nil
}

// Flush drains buffered output.
func (c *CSVWriter) Flush() error {
	if !c.header {
		if err := c.cw.Write(csvHeader); err != nil {
			return fmt.Errorf("flowio: writing CSV header: %w", err)
		}
		c.header = true
	}
	c.cw.Flush()
	if err := c.cw.Error(); err != nil {
		return fmt.Errorf("flowio: flushing CSV: %w", err)
	}
	return nil
}

// JSONLReader streams records from JSON Lines.
type JSONLReader struct {
	meter
	dec  *json.Decoder
	line int
}

// NewJSONLReader wraps r.
func NewJSONLReader(r io.Reader) *JSONLReader {
	j := &JSONLReader{}
	j.dec = json.NewDecoder(j.meter.wrap("jsonl", r))
	return j
}

// Next returns the next record, or io.EOF at end of input.
func (j *JSONLReader) Next() (flow.Record, error) {
	j.line++
	var jr jsonRecord
	if err := j.dec.Decode(&jr); err != nil {
		if errors.Is(err, io.EOF) {
			return flow.Record{}, io.EOF
		}
		return flow.Record{}, fmt.Errorf("flowio: decoding JSONL record %d: %w", j.line, err)
	}
	rec, err := jr.toRecord()
	if err != nil {
		return flow.Record{}, fmt.Errorf("flowio: JSONL record %d: %w", j.line, err)
	}
	j.records.Add(1)
	return rec, nil
}

// JSONLWriter streams records to JSON Lines.
type JSONLWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewJSONLWriter wraps w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriter(w)
	return &JSONLWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record.
func (j *JSONLWriter) Write(r *flow.Record) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("flowio: refusing to encode invalid record: %w", err)
	}
	jr := toJSONRecord(r)
	if err := j.enc.Encode(&jr); err != nil {
		return fmt.Errorf("flowio: encoding JSONL: %w", err)
	}
	return nil
}

// Flush drains buffered output.
func (j *JSONLWriter) Flush() error {
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("flowio: flushing JSONL: %w", err)
	}
	return nil
}

// Copy streams every record from r to w and flushes, returning the
// record count — format conversion without buffering the trace.
func Copy(w Writer, r Reader) (int, error) {
	n := 0
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return n, w.Flush()
		}
		if err != nil {
			return n, err
		}
		if err := w.Write(&rec); err != nil {
			return n, err
		}
		n++
	}
}

// ReadAll drains r into memory.
func ReadAll(r Reader) ([]flow.Record, error) {
	var out []flow.Record
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// WriteAll encodes records to w and flushes.
func WriteAll(w Writer, records []flow.Record) error {
	for i := range records {
		if err := w.Write(&records[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}
