package flowio

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"plotters/internal/flow"
	"plotters/internal/metrics"
)

// An unmetered reader (nil counters) must behave identically. The
// counters themselves are checked per format in TestFormats.
func TestUnmeteredReaderUnchanged(t *testing.T) {
	records := sampleRecords()
	var buf bytes.Buffer
	if err := WriteAllBinary(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewBinaryReader(bytes.NewReader(buf.Bytes())))
	if err != nil || !reflect.DeepEqual(got, records) {
		t.Errorf("unmetered decode mismatch (err %v):\ngot  %v\nwant %v", err, got, records)
	}
}

// MeterReader must leave foreign Reader implementations untouched.
func TestMeterReaderUnknownType(t *testing.T) {
	fake := fakeReader{}
	if got := MeterReader(fake, metrics.New()); got != Reader(fake) {
		t.Errorf("MeterReader rewrote an unknown reader: %v", got)
	}
}

type fakeReader struct{}

func (fakeReader) Next() (flow.Record, error) { return flow.Record{}, io.EOF }
