package main

import (
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

func TestMax(t *testing.T) {
	if max(1, 2) != 2 || max(3, 2) != 3 {
		t.Error("max wrong")
	}
}
