package main

import (
	"strings"
	"testing"

	"plotters"
)

func TestParseSubnets(t *testing.T) {
	internal, err := plotters.ParseSubnets("128.2.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	in, _ := plotters.ParseIP("128.2.1.1")
	out, _ := plotters.ParseIP("9.9.9.9")
	if !internal(in) || internal(out) {
		t.Error("membership wrong")
	}
	if _, err := plotters.ParseSubnets("nope"); err == nil {
		t.Error("bad CIDR accepted")
	}
	if _, err := plotters.ParseSubnets(""); err == nil {
		t.Error("empty accepted")
	}
}

// TestFlagsRejectedBeforeScan: a bad -cdf or -internal is refused
// before the trace is opened, so a missing trace is never reached.
func TestFlagsRejectedBeforeScan(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-cdf bogus missing.flows", "unknown CDF feature"},
		{"-internal nope missing.flows", "flow: subnet"},
	} {
		var out strings.Builder
		if err := run(strings.Fields(tc.args), &out); err == nil || !strings.HasPrefix(err.Error(), tc.want) || out.Len() != 0 {
			t.Errorf("flowstat %s: got %v after %q, want %q", tc.args, err, out.String(), tc.want)
		}
	}
}
