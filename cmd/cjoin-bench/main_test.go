package main

import (
	"reflect"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 8,32")
	if err != nil || !reflect.DeepEqual(got, []int{1, 8, 32}) {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	if got, err := parseInts(""); got != nil || err != nil {
		t.Fatalf("empty list must mean the default, got %v, %v", got, err)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("bad integer must error")
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("0.001, 0.1")
	if err != nil || !reflect.DeepEqual(got, []float64{0.001, 0.1}) {
		t.Fatalf("parseFloats = %v, %v", got, err)
	}
	if got, err := parseFloats(""); got != nil || err != nil {
		t.Fatalf("empty list must mean the default, got %v, %v", got, err)
	}
	if _, err := parseFloats("0.1,,"); err == nil {
		t.Fatal("bad float must error")
	}
}
