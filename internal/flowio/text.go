package flowio

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"time"

	"plotters/internal/flow"
)

// csvHeader is the column order of the CSV codec. Payload is hex-encoded.
var csvHeader = []string{
	"src", "dst", "sport", "dport", "proto", "state",
	"start", "end", "spkts", "dpkts", "sbytes", "dbytes", "payload",
}

// timeLayout is the CSV timestamp format (RFC 3339 with nanoseconds).
const timeLayout = time.RFC3339Nano

// formatCSVRow fills row with one record's CSV fields.
func formatCSVRow(r *flow.Record, row []string) {
	row[0] = r.Src.String()
	row[1] = r.Dst.String()
	row[2] = strconv.FormatUint(uint64(r.SrcPort), 10)
	row[3] = strconv.FormatUint(uint64(r.DstPort), 10)
	row[4] = r.Proto.String()
	row[5] = r.State.String()
	row[6] = r.Start.UTC().Format(timeLayout)
	row[7] = r.End.UTC().Format(timeLayout)
	row[8] = strconv.FormatUint(uint64(r.SrcPkts), 10)
	row[9] = strconv.FormatUint(uint64(r.DstPkts), 10)
	row[10] = strconv.FormatUint(r.SrcBytes, 10)
	row[11] = strconv.FormatUint(r.DstBytes, 10)
	row[12] = hex.EncodeToString(r.Payload)
}

func parseCSVRow(row []string) (flow.Record, error) {
	var (
		r   flow.Record
		err error
	)
	if r.Src, err = flow.ParseIP(row[0]); err != nil {
		return r, err
	}
	if r.Dst, err = flow.ParseIP(row[1]); err != nil {
		return r, err
	}
	sport, err := strconv.ParseUint(row[2], 10, 16)
	if err != nil {
		return r, fmt.Errorf("bad sport %q: %w", row[2], err)
	}
	r.SrcPort = uint16(sport)
	dport, err := strconv.ParseUint(row[3], 10, 16)
	if err != nil {
		return r, fmt.Errorf("bad dport %q: %w", row[3], err)
	}
	r.DstPort = uint16(dport)
	if r.Proto, err = flow.ParseProto(row[4]); err != nil {
		return r, err
	}
	switch row[5] {
	case flow.StateEstablished.String():
		r.State = flow.StateEstablished
	case flow.StateFailed.String():
		r.State = flow.StateFailed
	default:
		return r, fmt.Errorf("bad state %q", row[5])
	}
	if r.Start, err = time.Parse(timeLayout, row[6]); err != nil {
		return r, fmt.Errorf("bad start time: %w", err)
	}
	if r.End, err = time.Parse(timeLayout, row[7]); err != nil {
		return r, fmt.Errorf("bad end time: %w", err)
	}
	spkts, err := strconv.ParseUint(row[8], 10, 32)
	if err != nil {
		return r, fmt.Errorf("bad spkts: %w", err)
	}
	r.SrcPkts = uint32(spkts)
	dpkts, err := strconv.ParseUint(row[9], 10, 32)
	if err != nil {
		return r, fmt.Errorf("bad dpkts: %w", err)
	}
	r.DstPkts = uint32(dpkts)
	if r.SrcBytes, err = strconv.ParseUint(row[10], 10, 64); err != nil {
		return r, fmt.Errorf("bad sbytes: %w", err)
	}
	if r.DstBytes, err = strconv.ParseUint(row[11], 10, 64); err != nil {
		return r, fmt.Errorf("bad dbytes: %w", err)
	}
	if row[12] != "" {
		if r.Payload, err = hex.DecodeString(row[12]); err != nil {
			return r, fmt.Errorf("bad payload hex: %w", err)
		}
	}
	if err := r.Validate(); err != nil {
		return r, err
	}
	return r, nil
}

// jsonRecord is the JSON Lines wire shape of a record.
type jsonRecord struct {
	Src      string `json:"src"`
	Dst      string `json:"dst"`
	SrcPort  uint16 `json:"sport"`
	DstPort  uint16 `json:"dport"`
	Proto    string `json:"proto"`
	State    string `json:"state"`
	Start    string `json:"start"`
	End      string `json:"end"`
	SrcPkts  uint32 `json:"spkts"`
	DstPkts  uint32 `json:"dpkts"`
	SrcBytes uint64 `json:"sbytes"`
	DstBytes uint64 `json:"dbytes"`
	Payload  string `json:"payload,omitempty"` // hex
}

// toJSONRecord converts a record to its wire shape.
func toJSONRecord(r *flow.Record) jsonRecord {
	return jsonRecord{
		Src: r.Src.String(), Dst: r.Dst.String(),
		SrcPort: r.SrcPort, DstPort: r.DstPort,
		Proto: r.Proto.String(), State: r.State.String(),
		Start: r.Start.UTC().Format(timeLayout), End: r.End.UTC().Format(timeLayout),
		SrcPkts: r.SrcPkts, DstPkts: r.DstPkts,
		SrcBytes: r.SrcBytes, DstBytes: r.DstBytes,
		Payload: hex.EncodeToString(r.Payload),
	}
}

func (jr *jsonRecord) toRecord() (flow.Record, error) {
	row := []string{
		jr.Src, jr.Dst,
		strconv.FormatUint(uint64(jr.SrcPort), 10), strconv.FormatUint(uint64(jr.DstPort), 10),
		jr.Proto, jr.State, jr.Start, jr.End,
		strconv.FormatUint(uint64(jr.SrcPkts), 10), strconv.FormatUint(uint64(jr.DstPkts), 10),
		strconv.FormatUint(jr.SrcBytes, 10), strconv.FormatUint(jr.DstBytes, 10),
		jr.Payload,
	}
	return parseCSVRow(row)
}
